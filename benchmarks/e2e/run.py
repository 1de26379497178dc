"""File entry point: ``python3 benchmarks/e2e/run.py <arguments>``.

Takes the same arguments as ``python -m benchmarks.e2e`` (see
:mod:`benchmarks.e2e.cli`) and needs no ``PYTHONPATH``: it puts the
checkout root and its ``src/`` on ``sys.path`` itself. Without a
``src/repro`` beside it, it exits with status 2 and prints no result.

Before it returns, on every path, it stops each process the run started
and waits for it to end (see :func:`stop_processes`).
"""

import gc
import multiprocessing
import sys
import traceback
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def stop_processes() -> None:
    """Stop the processes ``multiprocessing`` started here; wait for each.

    The workloads close their pools themselves. An error can leave one
    open: collecting it runs its executor's finalizer, which terminates
    and joins the workers and unlinks the shared graph. Publishing a
    graph also starts the resource tracker, which ends only when its
    pipe closes, so it would outlive this interpreter for a moment.
    """
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


def main() -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2e benchmark: {ROOT / 'src' / 'repro'} not found", file=sys.stderr)
        return 2
    # The script's own directory would otherwise shadow top-level modules.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from benchmarks.e2e.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    except Exception:
        traceback.print_exc()  # the traceback is dropped, so its frames can be collected
        return 1
    finally:
        stop_processes()


if __name__ == "__main__":
    sys.exit(main())
