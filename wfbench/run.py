"""wavefront benchmark: three closed-loop workloads with one caller each.

    python3 wfbench/run.py --workload train_mel --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src. BLAS is pinned to one thread and every other setting is the
program's default. With --trace 0 the last stdout line is a JSON object
with the end-to-end metrics (setup_s, utts_per_s, peak_rss_mb); with
--trace 1 it carries the per-layer metrics of a traced run instead. Both
run the correctness checks after the timed region. setup_s and utts_per_s
are in reference seconds, which take out the host's load (hostspeed.py);
the wall-clock figures are printed above the JSON line and kept in the
result file. Spans and results are written under .wfbench/ in the checkout.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WAVEFRONT_THREADS", None)  # the program's default: 1

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True

import checks  # noqa: E402  (this file's directory is first on sys.path)
import hostspeed  # noqa: E402
from tracer import RUN, SETUP, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".wfbench"

# Set-up is repeated and its median reported, so a stray slow repeat does
# not move setup_s.
SETUP_REPEATS = 3
# The set-up child is killed (and waited for) if it runs longer than this.
SETUP_TIMEOUT_S = 150

# Corpus sizes are per class: (train, valid, test). Patience equals epochs,
# so early stopping never cuts a train_run short and every call makes the
# same number of steps.
WORKLOADS = {
    # Feature cache serves every epoch after the first: LSTM BPTT,
    # attention and the momentum step dominate; tdfb/pcen never run.
    "train_mel": {"frontend": "mel", "per_class": (8, 4, 0), "epochs": 5},
    # Gabor filterbank + PCEN with r, alpha, delta learned: the tdfb
    # convolution forward and backward dominate, with no feature cache.
    "train_tdfb_pcen": {"frontend": "tdfb_pcen", "per_class": (2, 1, 0), "epochs": 2},
    # Forward only: WAV read, log-mel with the in-house FFT and the
    # classifier for every test utterance on every pass. Set-up trains
    # the mel checkpoint it evaluates.
    "eval_mel": {"frontend": "mel", "per_class": (8, 4, 20), "epochs": 3},
}

TEST_UAR_FLOOR = 0.9
TDFB_CHECK_CHANNELS = (0, 21, 42, 63)


def import_program():
    src = ROOT / "src"
    if not (src / "wavefront" / "__init__.py").is_file():
        sys.exit(f"wfbench: no wavefront source under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import wavefront
    from wavefront import data, melfb, net, tdfb

    if Path(wavefront.__file__).resolve().parent != (src / "wavefront").resolve():
        sys.exit(f"wfbench: imported wavefront from {wavefront.__file__}, not {src}")
    return {"data": data, "melfb": melfb, "net": net, "tdfb": tdfb}


def workload_inputs(mods, workload: str, seed: int):
    w = WORKLOADS[workload]
    n_train, n_valid, n_test = w["per_class"]
    spec = mods["data"].SyntheticSpec(
        seed=seed, n_train_per_class=n_train, n_valid_per_class=n_valid,
        n_test_per_class=n_test,
    )
    cfg = mods["net"].make_run_config(
        w["frontend"], seed=seed, epochs=w["epochs"], patience=w["epochs"]
    )
    return spec, cfg


def make_tracer(mods, trace: bool):
    if not trace:
        return None
    tracer = Tracer()
    tracer.install(mods)
    return tracer


def build_inputs(workload: str, seed: int, work: str, trace: bool):
    """Set-up: synthesise the corpus and, for eval_mel, train the checkpoint
    it evaluates, SETUP_REPEATS times. It runs in a child process (see
    `Bench.setup`) so that its memory high-water mark stays out of the
    workload's peak_rss_mb. Returns the (wall, reference) seconds of each
    repeat and, when tracing, the spans."""
    mods = import_program()
    tracer = make_tracer(mods, trace)
    if tracer:
        tracer.phase = SETUP
    spec, cfg = workload_inputs(mods, workload, seed)

    def repeat():
        manifest = mods["data"].generate_synthetic(spec, Path(work) / "corpus")
        if workload == "eval_mel":
            mods["net"].train_run(manifest, cfg, Path(work) / "setup")

    durations = [hostspeed.timed(repeat)[1:] for _ in range(SETUP_REPEATS)]
    return durations, tracer.spans if tracer else []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


class Bench:
    def __init__(self, args, mods, work: Path):
        self.args = args
        self.mods = mods
        self.data, self.net = mods["data"], mods["net"]
        self.work = work
        self.failures: list[str] = []
        self.tracer = make_tracer(mods, args.trace)
        _, self.cfg = workload_inputs(mods, args.workload, args.seed)

    def phase(self, name, round_no: int = 0) -> None:
        if self.tracer:
            self.tracer.phase = name
            self.tracer.round = round_no

    def check(self, label: str, fn, *args, **kwargs) -> None:
        try:
            fn(*args, **kwargs)
        except checks.CheckFailed as e:
            self.failures.append(f"{label}: {e}")

    def setup(self, load):
        """Build the inputs in a child process, then time `load()`, the
        in-process part of set-up, SETUP_REPEATS times. Returns the set-up
        time as (wall, reference) seconds, each the median child repeat
        plus the median load, and the last loaded value."""
        out = self.work / "setup.json"
        # subprocess.run waits for the child on every path out of it, and
        # kills it first on a timeout or an exception (SIGTERM included,
        # see main). A child that fails ends this run with its exit code.
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", self.args.workload, "--seed", str(self.args.seed),
             "--trace", str(self.args.trace), "--setup-child", str(out)],
            stdin=subprocess.DEVNULL, stdout=sys.stderr, check=True,
            timeout=SETUP_TIMEOUT_S,
        )
        child, spans = json.loads(out.read_text())
        if self.tracer:
            self.tracer.adopt(spans)
        self.phase(SETUP)
        local = []
        for _ in range(SETUP_REPEATS):
            loaded, wall, ref = hostspeed.timed(load)
            local.append((wall, ref))
        self.phase(None)
        setup = tuple(
            statistics.median(c[i] for c in child) + statistics.median(c[i] for c in local)
            for i in (0, 1)
        )
        return setup, loaded

    def timed_loop(self, op):
        """Closed loop: call op() until --seconds have passed, one caller,
        with the reference kernel run between calls. Returns the (wall,
        reference) seconds of each call and the results."""
        durations, results = [], []
        kernel = [hostspeed.kernel_seconds()]
        start = time.perf_counter()
        while not results or time.perf_counter() - start < self.args.seconds:
            self.phase(RUN, len(results))
            t0 = time.perf_counter()
            results.append(op(len(results)))
            wall = time.perf_counter() - t0
            self.phase(None)
            kernel.append(hostspeed.kernel_seconds())
            durations.append((wall, hostspeed.ref_seconds(wall, kernel[-2], kernel[-1])))
        return durations, results

    def wave_of(self, utt):
        return self.net.prepare_waveform(
            self.data.read_wav(utt.path, self.cfg.sample_rate), self.cfg
        )

    def one_per_label(self, utts):
        return [next(u for u in utts if u.label == label) for label in self.data.LABELS]

    # -- checks shared by the workloads ------------------------------------

    def check_checkpoint(self, label: str, path) -> None:
        state = self.net.state_from_checkpoint(path)
        self.check(label, checks.check_finite_tensors, str(path),
                   self.net.checkpoint_tensors(state))

    def check_frontend(self, state, utts) -> None:
        fe = state.frontend
        for utt in utts:
            wave = self.wave_of(utt)
            values, _ = self.net.frontend_forward(fe, wave)
            if fe.kind == "mel":
                self.check(f"log-mel {utt.utt_id}", checks.check_log_mel, values, utt.path)
                continue
            p = fe.tdfb
            energy, _ = self.mods["tdfb"].tdfb_forward(wave, p)
            self.check(f"tdfb {utt.utt_id}", checks.check_tdfb_channels, energy.values,
                       utt.path, p.conv_taps, p.lowpass_width, p.lowpass_stride,
                       TDFB_CHECK_CHANNELS)
            q = fe.pcen
            self.check(f"pcen {utt.utt_id}", checks.check_pcen, values, energy.values,
                       q.alpha, q.delta, q.r, q.s, q.epsilon)

    def check_gradient(self, label: str, state, utt) -> None:
        net = self.net
        wave = self.wave_of(utt)
        y = self.data.LABELS.index(utt.label)
        _, grads = net.utterance_loss_and_grads(state, wave, y)
        self.check(label, checks.check_directional_gradient,
                   lambda: net.utterance_loss(state, wave, y), grads, state.tensors,
                   self.args.seed)

    # -- workloads ---------------------------------------------------------

    def train(self):
        setup_s, manifest = self.setup(
            lambda: self.data.load_manifest(self.work / "corpus" / "manifest.csv")
        )
        train_utts = manifest.split("train")
        steps_per_call = len(train_utts) * self.cfg.epochs

        final = {}

        def round_(k):
            r = self.net.train_run(manifest, self.cfg, self.work / f"run{k}")
            # Only the last trained state is kept, so the number of rounds
            # a run fits in does not change its peak memory.
            final["state"] = r.state
            return r.log_rows, r.checkpoint_path

        durations, results = self.timed_loop(round_)
        rss = peak_rss_mb()

        for k, (log_rows, checkpoint) in enumerate(results):
            if len(log_rows) != self.cfg.epochs:
                self.failures.append(f"train_run {k}: {len(log_rows)} epochs logged")
            self.check_checkpoint(f"checkpoint {k}", checkpoint)
        self.check("reruns", checks.check_rounds_agree, [rows for rows, _ in results])
        first = train_utts[0]
        self.check_gradient("gradient at start", self.net.make_train_state(self.cfg), first)
        self.check_gradient("gradient at end", final["state"], first)
        self.check_frontend(final["state"], self.one_per_label(train_utts))
        return setup_s, steps_per_call, durations, rss

    def evaluate(self):
        checkpoint = self.work / "setup" / "checkpoint.ckpt"
        setup_s, (manifest, state) = self.setup(
            lambda: (
                self.data.load_manifest(self.work / "corpus" / "manifest.csv"),
                self.net.state_from_checkpoint(checkpoint),
            )
        )
        test_utts = manifest.split("test")

        durations, passes = self.timed_loop(lambda k: self.net.evaluate(state, test_utts))
        rss = peak_rss_mb()

        truths = [u.label for u in test_utts]
        for k, ev in enumerate(passes):
            self.check(f"pass {k} UAR", checks.check_uar, ev.uar, ev.predictions, truths)
        self.check("test UAR", checks.check_min_uar, passes[0].uar, TEST_UAR_FLOOR)
        self.check("passes", checks.check_rounds_agree, [ev.predictions for ev in passes])
        self.check_checkpoint("eval checkpoint", checkpoint)
        self.check_frontend(state, self.one_per_label(test_utts))
        return setup_s, len(test_utts), durations, rss


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1,
                    help="seeds the corpus and the model initialisation (default 1)")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the timed region; whole rounds run until it is over")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    # Internal: run the set-up in this process and write its result here.
    ap.add_argument("--setup-child", metavar="FILE", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    # Raise SystemExit so that finally blocks run: the set-up child is
    # killed and waited for, and the scratch directory is removed.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if args.setup_child:
        out = Path(args.setup_child)
        result = build_inputs(args.workload, args.seed, str(out.parent), bool(args.trace))
        out.write_text(json.dumps(result))
        return 0
    mods = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        bench = Bench(args, mods, work)
        run = bench.evaluate if args.workload == "eval_mel" else bench.train
        setup_s, ops_per_call, durations, rss = run()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = ops_per_call * len(durations)
    utts_per_s = statistics.median(ops_per_call / ref for _, ref in durations)
    wall_utts_per_s = statistics.median(ops_per_call / wall for wall, _ in durations)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if bench.tracer:
        metrics = bench.tracer.per_layer(SETUP_REPEATS, attempted)
        metrics["trace.utts_per_s"] = (utts_per_s, "utts/s")
        bench.tracer.write_jsonl(OUT_DIR / f"spans-{tag}.jsonl")
    else:
        metrics = {
            "setup_s": (setup_s[1], "s"),
            "utts_per_s": (utts_per_s, "utts/s"),
            "peak_rss_mb": (rss, "MB"),
        }
    result = {
        "correct": not bench.failures,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(
        result, ops_per_round=ops_per_call, setup_wall_s=setup_s[0],
        wall_utts_per_s=wall_utts_per_s,
        round_seconds=[wall for wall, _ in durations],
        round_ref_seconds=[ref for _, ref in durations],
    )
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for failure in bench.failures:
        print(f"CHECK FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(durations)} rounds, "
          f"{attempted} operations, checks {'passed' if not bench.failures else 'FAILED'}")
    print(f"  wall clock: setup {setup_s[0]:.6g} s, {wall_utts_per_s:.6g} utts/s; "
          "the metrics below are in reference seconds (wfbench/hostspeed.py)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
