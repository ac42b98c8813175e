#!/usr/bin/env python3
"""Drive every frontend configuration to overfit a ten-utterance subset and
report how many epochs each needs to cut the loss below 10% of its start."""

import argparse

from wavefront import net
from wavefront.data import load_manifest
from wavefront.errors import ValidationError


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--max-epochs", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    manifest = load_manifest(args.manifest)
    for frontend in net.FRONTENDS:
        cfg = net.make_run_config(frontend, seed=args.seed, epochs=args.max_epochs)
        try:
            r = net.overfit_check(manifest, cfg)
        except ValidationError as e:
            raise SystemExit(str(e)) from e
        reached = r.final < 0.1 * r.initial
        status = f"epoch {r.epochs}" if reached else "NOT REACHED"
        print(f"{frontend:10s} initial {r.initial:.4f} -> {r.final:.4f} ({status})")


if __name__ == "__main__":
    main()
