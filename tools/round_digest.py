"""One sha256 over one round of every benchmark workload, run in-process.

    python tools/round_digest.py SRC_ROOT

SRC_ROOT is the directory that holds the `harnack` package to run (the
`src` of a checkout).  The commands come from this checkout's
`bench/workloads.py`, so two trees run the same commands: one round of each
workload at seeds 7 and 43, each through `harnack.cli.main(argv)`.  The
digest covers, per command in order, its output file, exit code, stdout and
stderr, with the work-directory path masked.  Equal digests mean equal CLI
behaviour on the benchmark's commands.  Prints the directory `harnack` was
imported from (and stops if it is not under SRC_ROOT), one digest per
workload over that workload's commands, so that a mismatch names its
workload, then the command count, the number of commands that raised, and
the total digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench")
SEEDS = (7, 43)


def main(src_root: str) -> None:
    src_root = os.path.abspath(src_root)
    sys.path[:0] = [src_root, os.path.abspath(BENCH)]
    from harnack import cli

    import workloads

    package = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.commonpath([package, src_root]) != src_root:
        sys.exit(f"harnack was imported from {package}, not from under {src_root}")
    print(f"harnack {package}")

    digest, count, raised = hashlib.sha256(), 0, 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in workloads.WORKLOADS:
            part_digest = hashlib.sha256()
            for seed in SEEDS:
                workdir = os.path.join(tmp, f"{name}-{seed}")
                os.mkdir(workdir)
                for op in workloads.build(name, seed, workdir):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            status = repr(cli.main(op.argv))
                        except Exception as e:
                            status = f"raised {type(e).__name__}: {e}"
                            raised += 1
                    written = b"<none>"
                    if os.path.exists(op.out):
                        with open(op.out, "rb") as f:
                            written = f.read()
                    texts = (status, out.getvalue(), err.getvalue())
                    for part in (written, *(t.replace(workdir, "<work>").encode() for t in texts)):
                        for d in (digest, part_digest):
                            d.update(len(part).to_bytes(8, "little") + part)
                    count += 1
            print(f"sha256 {name} {part_digest.hexdigest()}")
    print(f"commands {count}")
    print(f"raised {raised}")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
