"""Run ``repro.cli.main`` in this process, optionally with layer probes.

    python3 e2ebench/launch.py [--spans OUT] -- <repro arguments>

Untraced and traced operations both start through this script, so the only
difference between them is the probes. With ``--spans``, the probes of
:mod:`layers` are installed before ``repro.cli.main`` runs and every span
is written to ``OUT`` as JSON when it returns. ``E2EBENCH_SPAWN`` carries
the parent's monotonic clock reading at spawn, for ``cli.startup``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, program_args = argv[:split], argv[split + 1:]
    spans_out = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    recorder = None
    if spans_out is not None:
        import layers
        import spans

        recorder = spans.Recorder()
        layers.install(recorder, float(os.environ["E2EBENCH_SPAWN"]))
    from repro.cli import main as repro_main

    try:
        return repro_main(program_args)
    finally:
        if recorder is not None:
            recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
