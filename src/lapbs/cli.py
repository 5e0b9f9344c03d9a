"""``price`` command line interface for the experiment harness."""

import argparse
import json
import sys

from . import experiments

__all__ = ["main"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="price",
        description="Option pricing by contour-quadrature Laplace inversion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="reproduce one example's tables")
    run.add_argument("--example", required=True,
                     choices=["ex1", "ex2", "ex3"])
    run.add_argument("--config", default=None,
                     help="JSON experiment config (defaults built in)")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--out", default=None, help="output directory")

    sub.add_parser("oracle", help="run the inversion, kappa, Poincare and "
                   "Garding (on the pencil's bands) and Robin-branch checks")

    ref = sub.add_parser("reference", help="manage the Example-3 reference")
    ref.add_argument("--rebuild", action="store_true")
    ref.add_argument("--cache", default=None, help="reference cache path")

    args = parser.parse_args(argv)

    if args.command == "run":
        cfg = experiments.load_config(args.config, example=args.example)
        if args.workers is not None:
            cfg.workers = args.workers
        if args.out is not None:
            cfg.out = args.out
        runner = {
            "ex1": experiments.run_example1,
            "ex2": experiments.run_example2,
            "ex3": experiments.run_example3,
        }[cfg.example]
        runner(cfg)
        print(f"wrote tables to {cfg.out}/")
        return 0

    if args.command == "oracle":
        ok, report = experiments.run_oracles()
        for c in report["checks"]:
            status = "PASS" if c["passed"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            print(f"[{status}] {c['name']}{detail}")
        return 0 if ok else 1

    if args.command == "reference":
        cfg = experiments.default_config("ex3")
        if args.cache:
            cfg.reference_cache = args.cache
        experiments.reference_solution(cfg, rebuild=args.rebuild)
        print(f"reference cached at {cfg.reference_cache}")
        return 0


if __name__ == "__main__":
    sys.exit(main())
