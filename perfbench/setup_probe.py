"""One fresh-interpreter set-up measurement, printed as a JSON line.

Times ``import repro.cli`` and then opening the workload's compile service
and store, exactly as a ``figure`` run pays them before its first job::

    PYTHONPATH=src python3 perfbench/setup_probe.py [--cache-dir DIR] [--remote-compile URL]

Without ``--cache-dir`` the service is opened with the store disabled (the
``--no-cache`` mode).  With ``--reference`` it instead times importing a
fixed set of standard-library modules that the program cannot change: the
machine's set-up speed at that moment.  ``run.py`` launches both several
times per run.
"""

import argparse
import json
import time

#: Not imported by this script's own preamble, so each one is really loaded.
REFERENCE_MODULES = ("asyncio", "decimal", "email.message", "http.client", "unittest")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--remote-compile", default="")
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()

    if args.reference:
        import importlib

        start = time.perf_counter()
        for name in REFERENCE_MODULES:
            importlib.import_module(name)
        print(json.dumps({"reference_s": time.perf_counter() - start}))
        return

    start = time.perf_counter()
    import repro.cli  # noqa: F401 - the import is what is being timed
    from repro.service import CompileService

    imported = time.perf_counter()
    service = CompileService(
        cache_dir=args.cache_dir,
        enabled=args.cache_dir is not None,
        remote_cache="",
        remote_compile=args.remote_compile,
    )
    if service.store is not None:
        service.store.stats()  # opening a store reads (or builds) its index
    opened = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "service_open_s": opened - imported}))


if __name__ == "__main__":
    main()
