"""One untraced pass over a list of ops in a fresh interpreter.

Usage: python3 perfbench/fresh_pass.py <pass_dir> <ops as a JSON list of argv lists>

Writes every op's artifacts under ``pass_dir`` and prints one JSON line with
the process's peak resident memory in MiB.
"""

import json
import resource
import sys
from pathlib import Path

from workloads import import_cli, op_dir, run_op


def main(argv: list[str]) -> int:
    pass_dir, ops = Path(argv[0]), json.loads(argv[1])
    cli = import_cli()
    for i, op in enumerate(ops):
        run_op(cli.main, op, op_dir(pass_dir, i, op))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    print(json.dumps({"peak_rss_mb": peak_kib / 1024}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
