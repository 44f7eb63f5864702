"""Pre-draw the service-mixed frames against in-process twins.

Run by the ``service-mixed`` workload in a child process, so the twins'
memory never counts toward the benchmark's peak RSS::

    python3 perfbench/predraw.py --seed 0 --scale 1.0 --frames 400 --checkpoint 64 --out F
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--checkpoint", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    from perfbench.workloads import draw_script

    script = draw_script(args.seed, args.scale, args.frames, args.checkpoint)
    partial = args.out.with_name(f"{args.out.name}.{os.getpid()}.partial")
    partial.write_text(json.dumps(script))
    os.replace(partial, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
