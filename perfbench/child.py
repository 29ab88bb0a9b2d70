"""Run one `matmeans check` in this fresh interpreter and time it.

Usage: python3 perfbench/child.py RESULT_JSON plain|trace CHECK_ARGS...

The program is imported from ``src`` under the working directory (the
parent puts it on PYTHONPATH).  Import time and the time of
``cli.main(["check", ...])`` are measured separately; with ``trace`` the
per-layer tracer is installed after the import and its summary is added
to the result.  The exit code is the program's.
"""

import json
import platform
import sys
import time


def main(argv) -> int:
    out_path, mode, check_argv = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    from matmeans import cli

    t1 = time.perf_counter()
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer.install()
    t2, c2 = time.perf_counter(), time.process_time()
    try:
        rc = cli.main(check_argv)
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    t3, c3 = time.perf_counter(), time.process_time()
    record = {
        "exit_code": rc,
        "import_s": t1 - t0,
        "check_s": t3 - t2,
        "check_cpu_s": c3 - c2,
        "module_file": cli.__file__,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
