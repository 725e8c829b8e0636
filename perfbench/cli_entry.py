"""Run one ``irvis`` command in this fresh interpreter, as the console script
does, and record its ``train_step`` timings and losses.

    python3 perfbench/cli_entry.py --steps-out FILE [--trace-out FILE] -- <irvis args>

With ``--trace-out`` every layer's spans are recorded and written there too.
The exit code is the command's.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import irvis.cli  # noqa: E402

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, command = argv[:split], argv[split + 1:]
    options = dict(zip(own[::2], own[1::2]))
    steps = tracing.StepRecorder()
    tracer = tracing.Tracer() if "--trace-out" in options else None
    with tracing.patched(steps.patches()):
        if tracer is None:
            code = irvis.cli.main(command)
        else:
            with tracing.patched(tracer.patches()):
                with tracer.span("cli.command"):
                    code = irvis.cli.main(command)
    Path(options["--steps-out"]).write_text(
        json.dumps({"ms": steps.ms, "losses": steps.losses, "lora": steps.lora}))
    if tracer is not None:
        Path(options["--trace-out"]).write_text(json.dumps(tracer.take()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
