"""One benchmark child: import povdyn.cli, optionally trace, call main(argv).

Usage (the working directory is the workload's input directory):

    python3 child.py SRC_DIR MODE RESULT_JSON [SPANS_JSON] -- ARGV...

MODE is ``import`` (time the import only), ``run`` or ``trace``. The
result file receives ``setup_s`` (import time), ``run_s`` (wall time of
``main``), the exit code and the kernel backend name.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    sep = sys.argv.index("--")
    src, mode, result_path, *rest = sys.argv[1:sep]
    argv = sys.argv[sep + 1:]

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import povdyn.cli
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "backend": povdyn.backend_name()}

    if mode != "import":
        tracer = None
        if mode == "trace":
            import spans
            tracer = spans.Tracer()
            spans.install(tracer)
        t1 = time.perf_counter()
        rc = povdyn.cli.main(argv)
        result["run_s"] = time.perf_counter() - t1
        result["rc"] = rc
        if tracer is not None:
            tracer.dump(Path(rest[0]))
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0 if result.get("rc", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
