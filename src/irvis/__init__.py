"""Cross-modal (visible/infrared) contrastive pretraining at desk scale."""

from .autodiff import Tensor, grad_check
from .encoder import EncoderConfig, EncoderOutput, encode, init_params
from .lora import LoraAdapter, LoraConfig, attach, forward_adapted, merge, unmerge
from .pccl import (LOSSES, loss_iv, loss_pccl, loss_variant_softmax, loss_vv, pseudo_labels,
                   similarity)
from .training import TrainConfig, TrainState, forgetting_experiment, lr_at, train_step

__all__ = [
    "Tensor", "grad_check",
    "EncoderConfig", "EncoderOutput", "encode", "init_params",
    "LoraAdapter", "LoraConfig", "attach", "forward_adapted", "merge", "unmerge",
    "similarity", "pseudo_labels",
    "LOSSES", "loss_iv", "loss_vv", "loss_pccl", "loss_variant_softmax",
    "TrainConfig", "TrainState", "lr_at", "train_step", "forgetting_experiment",
]
