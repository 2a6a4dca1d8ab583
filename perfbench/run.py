"""The cohcheck benchmark. One run measures one workload:

    python3 perfbench/run.py --workload long_goals --seed 1 --seconds 30 --trace 0

Workloads (see README.md): ``cli_corpus``, ``axiom_matrix``, ``long_goals``.
Each round of a workload is a fixed list of operations of three kinds, run
one at a time from this process as a closed loop with one caller:

- a file checked in this process: parse_source, build_diagram, then
  explain_goal and report_json for every goal, the work ``coh check`` does
  after import;
- a ``coh check`` process on a file, timed from spawn to exit;
- ``check_axioms`` of one functor in one flavor over a probe of words.

Rounds repeat until ``--seconds`` have passed; the last one is finished.
Between every two operations a fixed reference loop reads the machine's
speed, and every reported time is scaled to the speed at which that loop
takes REFERENCE_S (see README.md).
Outputs are checked after the timed rounds. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a run
with spans around every hooked call with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
PROCESS_TIMEOUT_S = 120
# String hashing is salted per process unless this is fixed, and the salt
# alone moved in-process timings by up to a third between runs here; every
# process of the benchmark, children included, runs with this one.
HASH_SEED = "0"
# the entry point that the ``coh`` console script runs
COH = ["-c", "import sys; from cohcheck.cli import main; sys.exit(main())"]
# Reported times are scaled to the machine speed at which reference_loop()
# takes this long (see README.md, "Noise on the measuring machine").
REFERENCE_S = 0.003


@dataclass(frozen=True)
class FileJob:
    name: str
    text: str
    flavor: str
    expect: tuple[tuple[str, str], ...]  # (goal, verdict)
    deep: bool = False
    oracle: bool = True  # the oracle decides its reports too, not only the verdicts
    model: tuple = ()  # per goal, the constructed (left, right) words


@dataclass(frozen=True)
class ProcJob:
    name: str
    path: Path
    flavor: str
    expect: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class AxiomJob:
    kind: str
    flavor: str
    probe: tuple[tuple[str, ...], ...]
    spec: object


@dataclass
class Inputs:
    files: list[FileJob] = field(default_factory=list)
    procs: list[ProcJob] = field(default_factory=list)
    axioms: list[AxiomJob] = field(default_factory=list)
    shuffle: bool = False  # run each round's operations in a seeded order


# -- inputs ---------------------------------------------------------------------------


def _write_inputs(workload: str, seed: int, files) -> Path:
    out = RESULTS / "inputs" / f"{workload}-seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    for f in files:
        (out / f"{f.name}.coh").write_text(f.text, encoding="utf-8")
    return out


def _file_job(f) -> FileJob:
    return FileJob(
        f.name, f.text, f.flavor,
        tuple((g.name, g.verdict) for g in f.goals),
        f.deep,
        tuple((g.left, g.right) for g in f.goals),
    )


def _words(gens, lengths, rng) -> tuple[tuple[str, ...], ...]:
    """The empty word and, for each entry of lengths, one distinct word of
    that length over gens, drawn by rng."""
    out = [()]
    for k in sorted(set(lengths)):
        pool = [tuple(rng.choice(gens) for _ in range(k)) for _ in range(64)]
        pool = sorted(set(pool))
        rng.shuffle(pool)
        out.extend(pool[: lengths.count(k)])
    return tuple(out)


def inputs_cli_corpus(seed: int, api) -> Inputs:
    from checks import FIXTURES

    rng = random.Random(f"cli_corpus:{seed}")
    inp = Inputs(shuffle=True)
    for name in sorted(FIXTURES):
        flavor, goal, verdict, _ = FIXTURES[name]
        path = ROOT / "fixtures" / f"{name}.coh"
        text = path.read_text(encoding="utf-8")
        inp.files.append(FileJob(name, text, flavor, ((goal, verdict),)))
        inp.procs.append(ProcJob(name, path, flavor, ((goal, verdict),)))
    # the functor the corpus declares (cursed_lift: nfold(4) on { a, b })
    probe = _words(("a", "b"), [1, 1, 2, 2, 2, 2], rng)
    gens = api.fc.GenSet("A", ("a", "b"))
    inp.axioms.append(AxiomJob("nfold(4)", "S", probe, api.fe.make_builtin_spec("nfold(4)", gens, "S")))
    return inp


COPYING = ("doubling", "nfold(3)", "nfold(4)")


def inputs_axiom_matrix(seed: int, api) -> Inputs:
    import gen

    rng = random.Random(f"axiom_matrix:{seed}")
    inp = Inputs()
    gens = ("a", "b", "c")
    probe = _words(gens, [1, 1, 2, 2, 2, 2], rng)
    genset = api.fc.GenSet("A", gens)
    for kind in ("identity",) + COPYING:
        for flavor in ("M", "S", "B"):
            if kind != "identity" and flavor == "M":
                continue  # copying needs a braiding
            inp.axioms.append(AxiomJob(kind, flavor, probe, api.fe.make_builtin_spec(kind, genset, flavor)))
    # the same functors as a file declares them, with an interpretation
    made = []
    for kind in COPYING:
        for flavor in ("B", "S"):
            shape = gen.Shape(flavor, 4, ("a", "b"), 2, 1, 0.3, kind)
            made.append(gen.make_file(rng, f"{kind}-{flavor}", shape, gen.EQUAL))
    inp.files.extend(_file_job(f) for f in made)
    where = _write_inputs("axiom_matrix", seed, made)
    for f in made:
        job = _file_job(f)
        inp.procs.append(ProcJob(f.name, where / f"{f.name}.coh", f.flavor, job.expect))
    return inp


# (verdict, functor). Twelve braided files, each kind twice, since the cost
# of one, most of all of one that declares nfold(3), moves by a fifth or
# more with the seed.
BRAIDED = 2 * [
    ("equal", None), ("equal_in_s_only", None), ("not_equal", None), ("equal", None),
    ("equal", "doubling"), ("equal_in_s_only", "nfold(3)"),
]
SYMMETRIC = [("equal", None), ("not_equal", None), ("equal", None), ("not_equal", "nfold(3)")]


def inputs_long_goals(seed: int, api) -> Inputs:
    import gen

    rng = random.Random(f"long_goals:{seed}")
    inp = Inputs()
    made = []
    for i, (verdict, functor) in enumerate(BRAIDED):
        shape = gen.Shape("B", 4, ("a", "b"), 3, 23, 0.3, functor)
        made.append(gen.make_file(rng, f"braided{i}", shape, verdict))
    for i, (verdict, functor) in enumerate(SYMMETRIC):
        shape = gen.Shape("S", 8, ("a", "b", "c"), 3, 35, 0.3, functor)
        made.append(gen.make_file(rng, f"symmetric{i}", shape, verdict))
    made += [gen.deep_path_file(), gen.deep_edge_file()]
    inp.files.extend(_file_job(f) for f in made)
    # the oracle takes about half a second a braided goal: it decides one
    # file, chosen by seed, of each pair of braided files made alike
    pick = random.Random(f"long_goals-oracle:{seed}")
    half = len(BRAIDED) // 2
    for i in range(half):
        skip = i + half * pick.randrange(2)
        inp.files[skip] = replace(inp.files[skip], oracle=False)
    where = _write_inputs("long_goals", seed, made)
    for f, (_, functor) in zip(made[len(BRAIDED):], SYMMETRIC):
        if functor is None:
            job = _file_job(f)
            inp.procs.append(ProcJob(f.name, where / f"{f.name}.coh", f.flavor, job.expect))
    # the functors the files declare, over the words of length <= 2 on { a, b }
    genset = api.fc.GenSet("A", ("a", "b"))
    probe = _words(("a", "b"), [1, 1, 2, 2, 2, 2], rng)
    for kind, flavor in (("doubling", "B"), ("nfold(3)", "B"), ("nfold(3)", "S")):
        inp.axioms.append(AxiomJob(kind, flavor, probe, api.fe.make_builtin_spec(kind, genset, flavor)))
    return inp


WORKLOADS = {
    "cli_corpus": inputs_cli_corpus,
    "axiom_matrix": inputs_axiom_matrix,
    "long_goals": inputs_long_goals,
}


# -- running ------------------------------------------------------------------------


class Api:
    """The public functions the benchmark drives, looked up at call time so
    that the tracer's wrappers are seen."""

    def __init__(self) -> None:
        import cohcheck.cli as cli
        import cohcheck.diagram_check as dc
        import cohcheck.free_cat as fc
        import cohcheck.functor_eval as fe

        self.cli, self.dc, self.fc, self.fe = cli, dc, fc, fe


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds(env: dict) -> float:
    """Import of cohcheck in a fresh interpreter, timed inside it."""
    code = (
        "import time; t = time.perf_counter(); "
        "import cohcheck.cli, cohcheck.functor_eval; print(time.perf_counter() - t)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=PROCESS_TIMEOUT_S, check=True)
    return float(out.stdout.strip())


@dataclass
class Sample:
    kind: str  # "file", "proc" or "axiom"
    job: int
    seconds: float
    output: object = None
    error: str | None = None  # "<exception type>: <message>"; not the exception,
    # whose traceback would keep a thousand frames of the failed recursion alive
    reference: float = REFERENCE_S  # the machine's speed around the operation
    at: int = 0  # index in Runner.refs of the reading just before it

    @property
    def scaled(self) -> float:
        return self.seconds * REFERENCE_S / self.reference


def reference_loop() -> int:
    """Fixed pure-Python work of the kind cohcheck does (small dicts, lists,
    ints and strings); it never changes with the program."""
    d: dict = {}
    for i in range(20000):
        d[i % 500] = [i, str(i)]
    return len(d)


def reference_seconds() -> float:
    """The machine's present speed: the median of three reference loops."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    def __init__(self, api: Api, inputs: Inputs, env: dict, rng: random.Random) -> None:
        self.api, self.inputs, self.env, self.rng = api, inputs, env, rng
        self.tracer = None
        self.calibrate = True  # read reference_seconds() between operations
        self.refs: list[float] = []  # readings of reference_seconds(), in order
        self.child_imports: list[float] = []  # import seconds of traced children
        ops = [("file", i) for i in range(len(inputs.files))]
        ops += [("proc", i) for i in range(len(inputs.procs))]
        ops += [("axiom", i) for i in range(len(inputs.axioms))]
        self.ops = ops

    def file(self, i: int) -> Sample:
        cli, dc = self.api.cli, self.api.dc
        t0 = time.perf_counter()
        try:
            d = cli.build_diagram(cli.parse_source(self.inputs.files[i].text))
            out = [dc.report_json(dc.explain_goal(d, g)) for g in d.goals]
        except Exception as err:  # reported by the checker; only the deep files may fail
            return Sample("file", i, time.perf_counter() - t0, None, f"{type(err).__name__}: {err}")
        return Sample("file", i, time.perf_counter() - t0, out)

    def proc(self, i: int) -> Sample:
        path = str(self.inputs.procs[i].path)
        if self.tracer is None:
            cmd = [sys.executable, *COH, "check", path]
        else:
            spans = RESULTS / "child-spans.json"
            cmd = [sys.executable, str(HERE / "tracechild.py"), str(spans), "check", path]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
        seconds = time.perf_counter() - t0
        if self.tracer is not None:
            data = json.loads(spans.read_text(encoding="utf-8"))
            self.child_imports.append(data["import_s"])
            self.tracer.merge(data)
        return Sample("proc", i, seconds, (done.returncode, done.stdout, done.stderr))

    def axiom(self, i: int) -> Sample:
        job = self.inputs.axioms[i]
        t0 = time.perf_counter()
        rep = self.api.fe.check_axioms(job.spec, list(job.probe))
        return Sample("axiom", i, time.perf_counter() - t0, rep)

    def round(self) -> list[Sample]:
        ops = list(self.ops)
        if self.inputs.shuffle:
            self.rng.shuffle(ops)
        out = []
        self._reference()
        for kind, i in ops:
            sample = getattr(self, kind)(i)
            sample.at = len(self.refs) - 1
            out.append(sample)
            self._reference()
        return out

    def _reference(self) -> None:
        self.refs.append(reference_seconds() if self.calibrate else REFERENCE_S)

    def rounds(self, seconds: float, between=None) -> tuple[list[list[Sample]], list[float]]:
        """Whole rounds until the time is up; at least one. ``between`` is
        called, untimed, after each round."""
        rounds, walls = [], []
        stop = time.perf_counter() + seconds
        while True:
            gc.collect()  # each round starts from the same heap
            t0 = time.perf_counter()
            rounds.append(self.round())
            walls.append(time.perf_counter() - t0)
            if between is not None:
                between()
            if time.perf_counter() >= stop:
                break
        # an operation's reference: the median of the eight readings around
        # it, four before and four after
        for r in rounds:
            for s in r:
                s.reference = statistics.median(self.refs[max(0, s.at - 3) : s.at + 5])
        return rounds, walls


# -- checking ------------------------------------------------------------------------


class Checker:
    """Checks every sample; decides each distinct output with the oracle
    once, since rounds repeat the same inputs."""

    def __init__(self, inputs: Inputs, oracle, api: Api) -> None:
        self.inputs, self.oracle, self.api = inputs, oracle, api
        self.errors: list[str] = []
        self.failed = 0
        self.attempted = 0
        self._decided: set = set()
        self._axioms_decided: set = set()

    def _reports(self, where: str, reps, flavor: str, expect, model, use_oracle: bool = True) -> None:
        import checks

        if not (isinstance(reps, list) and all(isinstance(r, dict) for r in reps)):
            self.errors.append(f"{where}: output is not a list of goal reports")
            return
        if [r.get("goal") for r in reps] != [g for g, _ in expect]:
            self.errors.append(f"{where}: goals {[r.get('goal') for r in reps]}")
            return
        key = json.dumps(reps, sort_keys=True)
        oracle = None if key in self._decided or not use_oracle else self.oracle
        for i, (rep, (_, verdict)) in enumerate(zip(reps, expect)):
            try:
                errs = checks.check_report(rep, flavor, verdict, oracle, model[i] if model else None)
            except (KeyError, TypeError, ValueError) as err:
                errs = [f"malformed report: {type(err).__name__}: {err}"]
            self.errors.extend(f"{where}: {e}" for e in errs)
        self._decided.add(key)

    def sample(self, s: Sample) -> None:
        self.attempted += 1
        if s.kind == "file":
            job = self.inputs.files[s.job]
            if s.error is not None:
                # the deep files fail by recursion until composition is iterative
                if job.deep and s.error.startswith("RecursionError:"):
                    self.failed += 1
                else:
                    self.errors.append(f"{job.name}: {s.error}")
                return
            self._reports(job.name, s.output, job.flavor, job.expect, job.model, job.oracle)
        elif s.kind == "proc":
            job = self.inputs.procs[s.job]
            code, stdout, stderr = s.output
            want = 0 if all(v == "equal" for _, v in job.expect) else 1
            if code != want:
                self.errors.append(f"coh check {job.name}: exit {code}, expected {want}: {stderr[-300:]}")
                return
            try:
                reps = json.loads(stdout)
            except ValueError:
                self.errors.append(f"coh check {job.name}: stdout is not JSON")
                return
            self._reports(f"coh check {job.name}", reps, job.flavor, job.expect, None)
        else:
            import checks

            job = self.inputs.axioms[s.job]
            self.errors.extend(checks.check_axiom_report(s.output, job.kind, job.flavor, job.probe))
            key = (job.kind, job.flavor, job.probe)
            if job.flavor == "B" and key not in self._axioms_decided:
                fc = self.api.fc
                fns = (fc.fmor_compose, fc.fmor_tensor, fc.fmor_id, fc.fmor_braiding)
                self.errors.extend(checks.oracle_axioms(job.spec, job.kind, job.probe, self.oracle, fns))
                self._axioms_decided.add(key)


# -- metrics --------------------------------------------------------------------------


def _per_job(rounds, kind: str) -> dict[int, float]:
    """Each job's median scaled time over the rounds of the run, for the
    samples of one kind that did not fail."""
    times: dict[int, list[float]] = {}
    for r in rounds:
        for s in r:
            if s.kind == kind and s.error is None:
                times.setdefault(s.job, []).append(s.scaled)
    return {job: statistics.median(v) for job, v in times.items()}


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def end_to_end(rounds, inputs: Inputs, setup_s: float, rss_mb: float) -> dict:
    """Every time is a job's median over the run, scaled to the reference
    speed (Sample.scaled), then averaged over the jobs."""
    files = _per_job(rounds, "file")
    proc = _per_job(rounds, "proc")
    axiom = _per_job(rounds, "axiom")
    checked = {s.job: s.output.checked for s in rounds[0] if s.kind == "axiom"}

    def flavor_ms(flavor):
        return _ms(_mean(t for i, t in files.items() if inputs.files[i].flavor == flavor))

    values = {
        "setup_s": (setup_s, "s"),
        "check_process_ms": (_ms(_mean(proc.values())), "ms"),
        "axiom_checks_per_s": (sum(checked[i] for i in axiom) / sum(axiom.values()) if axiom else None,
                               "checks/s"),
        "braided_goal_ms": (flavor_ms("B"), "ms"),
        "symmetric_goal_ms": (flavor_ms("S"), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else seconds * 1e3


def per_layer(tracer, rounds: int, imports: list[float]) -> dict:
    t = tracer.totals()
    per_round = 1e3 / rounds
    sides = 2 * t["diagram_check.explain_goal"]["calls"]

    def incl(name):
        return t[name]["incl_s"] * per_round

    def own(name):
        return t[name]["self_s"] * per_round

    def calls(name):
        return t[name]["calls"] / rounds

    def per_side(name):
        return t[name]["under_explain"] / sides if sides else 0.0

    c = {k: v / rounds for k, v in tracer.counts.items()}
    values = {
        "cli.import_ms": (statistics.median(imports) * 1e3 if imports else 0.0, "ms"),
        "cli.parse_source_ms": (incl("cli.parse_source"), "ms"),
        "cli.build_diagram_ms": (own("cli.build_diagram"), "ms"),
        "diagram_check.validate_diagram_ms": (incl("diagram_check.validate_diagram"), "ms"),
        "diagram_check.explain_goal_ms": (own("diagram_check.explain_goal"), "ms"),
        "diagram_check.check_goal_ms": (incl("diagram_check.check_goal"), "ms"),
        "diagram_check.report_json_ms": (incl("diagram_check.report_json"), "ms"),
        "ualg.validate_umor_ms": (incl("ualg.validate_umor"), "ms"),
        "ualg.dissolve_ms": (incl("ualg.dissolve"), "ms"),
        "ualg.validate_umor_calls_per_side": (per_side("ualg.validate_umor"), "calls/side"),
        "ualg.dissolve_calls_per_side": (per_side("ualg.dissolve"), "calls/side"),
        "free_cat.freemor_built": (c["freemor_built"], "count"),
        "free_cat.fmor_compose_ms": (incl("free_cat.fmor_compose"), "ms"),
        "free_cat.fmor_tensor_ms": (incl("free_cat.fmor_tensor"), "ms"),
        "free_cat.fmor_equal_ms": (incl("free_cat.fmor_equal"), "ms"),
        "free_cat.flatten_mu_ms": (incl("free_cat.flatten_mu"), "ms"),
        "functor_eval.check_axioms_ms": (own("functor_eval.check_axioms"), "ms"),
        "functor_eval.lambda_eval_ms": (incl("functor_eval.lambda_eval"), "ms"),
        "functor_eval.lambda_eval_calls": (calls("functor_eval.lambda_eval"), "count"),
        "braid_core.normalize_braid_ms": (incl("braid_core.normalize_braid"), "ms"),
        "braid_core.normalize_calls_per_side": (per_side("braid_core.normalize_braid"), "calls/side"),
        "braid_core.nf_letters_in": (c["nf_letters_in"], "count"),
        "braid_core.nf_factors_out": (c["nf_factors_out"], "count"),
        "braid_core.braid_perm_ms": (incl("braid_core.braid_perm"), "ms"),
        "braid_core.braid_perm_calls": (calls("braid_core.braid_perm"), "count"),
        "braid_core.cable_ms": (incl("braid_core.cable"), "ms"),
        "braid_core.cable_letters_out": (c["cable_letters_out"], "count"),
        "braid_core.perm_braid_ms": (incl("braid_core.perm_braid"), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


# -- main -------------------------------------------------------------------------------


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cohcheck" / "__init__.py").is_file():
        print(f"no cohcheck sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    RESULTS.mkdir(exist_ok=True)
    env = child_env()

    import checks

    import_seconds(env)  # warm-up: the first import in a checkout writes bytecode
    api = Api()
    setups = []

    def setup():
        ref = reference_seconds()
        imp = import_seconds(env)
        t0 = time.perf_counter()
        inputs = WORKLOADS[args.workload](args.seed, api)
        setups.append((imp + time.perf_counter() - t0) * REFERENCE_S / ref)
        return inputs

    inputs = setup()
    for _ in range(SETUP_REPEATS - 1):
        setup()

    runner = Runner(api, inputs, env, random.Random(f"order:{args.workload}:{args.seed}"))
    report: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        from tracer import Tracer

        runner.calibrate = False  # per-layer times are not scaled
        plain_rounds, plain_walls = runner.rounds(args.seconds / 3)
        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            rounds, walls = runner.rounds(args.seconds * 2 / 3)
        finally:
            runner.tracer.uninstall()
        overhead = statistics.median(walls) / statistics.median(plain_walls) - 1
        rounds = plain_rounds + rounds
        report["tracing_overhead"] = overhead
        print(f"tracing overhead: {overhead * 100:.1f}% of an untraced round "
              f"({statistics.median(plain_walls):.3f} s untraced, {statistics.median(walls):.3f} s traced)")
    else:
        # one more set-up after each round, so that the set-ups are spread
        # over the run like the operations are
        rounds, walls = runner.rounds(args.seconds, between=setup)
    rss_mb = peak_rss_mb()
    setup_s = statistics.median(setups)

    checker = Checker(inputs, checks.load_oracle(ROOT), api)
    for r in rounds:
        for s in r:
            checker.sample(s)
    for e in checker.errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    if args.trace:
        traced = len(walls)
        metrics = per_layer(runner.tracer, traced, runner.child_imports)
        path = RESULTS / f"trace-{args.workload}-seed{args.seed}.json.gz"
        runner.tracer.write(path, {**report, "rounds": traced})
        print(f"spans: {len(runner.tracer.start)} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(rounds, inputs, setup_s, rss_mb)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}" if m["value"] is not None else f"{name:40s} -")

    result = {
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    report.update(result, rounds=len(rounds), setup_runs_s=setups, round_walls_s=walls,
                  samples=[[(s.kind, s.job, s.seconds, s.reference) for s in r] for r in rounds],
                  references=runner.refs)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
