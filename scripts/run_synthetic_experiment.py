#!/usr/bin/env python3
"""Run the scaled two-band experiment: train several frontends over several
seeds on the synthetic corpus and print a mean +/- std test-UAR table.

Example:
  python scripts/run_synthetic_experiment.py --out-dir /tmp/exp \
      --frontends mel,tdfb --seeds 1,2,3 --epochs 3
"""

import argparse
import time
from pathlib import Path

import numpy as np

from wavefront import net
from wavefront.data import SyntheticSpec, generate_synthetic, load_manifest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--frontends", default="mel,tdfb")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--corpus-seed", type=int, default=7)
    parser.add_argument("--n-train", type=int, default=100,
                        help="train utterances per class")
    parser.add_argument("--n-valid", type=int, default=25)
    parser.add_argument("--n-test", type=int, default=40)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--patience", type=int, default=3)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    corpus_dir = out_dir / "corpus"
    manifest_path = corpus_dir / "manifest.csv"
    if not manifest_path.exists():
        spec = SyntheticSpec(
            seed=args.corpus_seed,
            n_train_per_class=args.n_train,
            n_valid_per_class=args.n_valid,
            n_test_per_class=args.n_test,
        )
        generate_synthetic(spec, corpus_dir)
        print(f"generated corpus under {corpus_dir}")
    manifest = load_manifest(manifest_path)

    frontends = [f.strip() for f in args.frontends.split(",") if f.strip()]
    seeds = [int(s) for s in args.seeds.split(",")]
    table = {}
    for frontend in frontends:
        uars = []
        for seed in seeds:
            cfg = net.make_run_config(
                frontend, seed=seed, epochs=args.epochs, patience=args.patience
            )
            run_dir = out_dir / f"{frontend}_seed{seed}"
            t0 = time.perf_counter()
            result = net.train_run(manifest, cfg, run_dir)
            state = net.state_from_checkpoint(result.checkpoint_path)
            test_uar = net.evaluate(state, manifest.split("test")).uar
            uars.append(test_uar)
            print(
                f"{frontend} seed {seed}: valid {result.best_valid_uar:.3f} "
                f"(epoch {result.best_epoch}), test {test_uar:.3f}, "
                f"{time.perf_counter() - t0:.0f} s"
            )
        table[frontend] = uars

    print("\ntest UAR over seeds")
    for frontend, uars in table.items():
        arr = np.array(uars)
        std = arr.std(ddof=1) if len(arr) > 1 else 0.0
        print(f"  {frontend:10s} {arr.mean():.3f} +/- {std:.3f}")


if __name__ == "__main__":
    main()
