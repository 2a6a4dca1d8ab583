"""Run the ``coh`` command line with the tracer installed, as a traced
``coh check`` process of the benchmark:

    python3 perfbench/tracechild.py SPANS.json check FILE

It times the import of ``cohcheck.cli`` in this fresh interpreter, runs the
command, writes the import time, the spans and the counts to SPANS.json,
and exits with the command's status.
"""

import sys
import time

t0 = time.perf_counter()
import cohcheck.cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out_path, args = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        cohcheck.cli.main(args)
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else 1
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, **tracer.dump()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
