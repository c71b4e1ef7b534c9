"""The benchmark's workloads: `build`, `decode_sparse` and `decode_dense`.

Every workload is a single-threaded closed loop: one caller, and each op
starts only after the previous one returns.  A workload has a fixed pool of
seeded inputs, and a run makes whole rounds over the pool, so every input is
timed the same number of times.  Each op's output is checked right after
it, and a fixed calibration kernel is timed after that; neither is inside
the op's time.  The loop stops at the first round boundary after `seconds`
of measured op time, once a minimum number of rounds is done.  See
`measure` and README.md for how the times are reported.

Only `qbp`'s public functions are called, always through their module
(`decoder.decode`, not a local alias) so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from qbp import cli, css, decoder, expansion, gf2, groups, harness, instances, jsonio, product

import checks
from tracing import quotient_cells

EPSILON = Fraction(0)
DENSE_P = Fraction(3, 100)
GENS_A, GENS_B = (1, 2), (1, 4)          # left_right_cayley(Z_m, [1,2], [1,4]): k = 2
CERT_BUDGET = 1 << 12                    # exhaustive certification up to this many subsets
CERT_TRIALS = 8                          # sampled certification: subsets per size
KERNEL_BUDGET = 1 << 11                  # distance oracles only on kernels this small
DIAG_ERRORS = 2                          # seeded small errors per rung for the diagnostics


@dataclass(frozen=True)
class Rung:
    family: str
    size: int
    scale: str        # "small" or "large": the two ends the traced run compares
    gens: tuple = ()  # fixed generator lists; empty means drawn from the seed
    known: tuple = (None, None, None)   # published [[n, k, d]]; None is not checked


@dataclass(frozen=True)
class Sizes:
    ladder: tuple
    cayley_order: int          # the decode code is left_right_cayley(Z_m, [1,2], [1,4])
    sparse_pool: int         # the pool: trials that are timed, digested and counted exactly
    dense_pool: int
    crosscheck: int            # trials per harness.run_simulation stream
    decode_setups: int         # set-ups per untraced run; setup_s is their median
    build_setups: int
    min_rounds: int            # rounds over the pool, at least, whatever `seconds` says
    scaling_cayley: tuple      # Z_m sizes of the decode family in the scaling report
    scaling_star: tuple        # star_product(m, 3, 2) sizes in the scaling report


FULL = Sizes(
    ladder=(Rung("toric", 3, "small", known=(18, 2, 3)),
            Rung("toric", 8, "small", known=(128, 2, 8)),
            Rung("star", 8, "small"), Rung("star", 24, "large"),
            Rung("cayley", 8, "small", known=(16, 2, 4)),
            Rung("cayley", 48, "large", known=(96, 2, None)),
            Rung("matching", 8, "small"),
            Rung("dihedral", 4, "small", gens=((1, 2), (1, 2)), known=(16, 6, 2)),
            Rung("dihedral", 16, "large"),
            Rung("incidence", 5, "small"), Rung("incidence", 13, "large"),
            Rung("random", 4, "small")),
    cayley_order=256, sparse_pool=256, dense_pool=256, crosscheck=16,
    decode_setups=3, build_setups=15,
    min_rounds=8,
    scaling_cayley=(32, 64, 128), scaling_star=(16, 32, 64),
)
TINY = Sizes(
    ladder=(Rung("toric", 3, "small", known=(18, 2, 3)), Rung("star", 6, "large"),
            Rung("cayley", 8, "large", known=(16, 2, 4)),
            Rung("matching", 6, "small"), Rung("dihedral", 3, "small"),
            Rung("incidence", 5, "large"), Rung("random", 3, "small")),
    cayley_order=16, sparse_pool=16, dense_pool=16, crosscheck=4,
    decode_setups=2, build_setups=2,
    min_rounds=1,
    scaling_cayley=(8, 12, 16), scaling_star=(4, 6, 8),
)


def stream_seed(seed, tag):
    """Master seed of one trial stream of the workload seed."""
    digest = hashlib.sha256(f"qbp-bench:{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# -- the measured loop ------------------------------------------------------------

# Time of calibration_kernel() on the reference machine (the one named in
# README.md), by the estimator of Measured.calib.  A run's times are reported
# multiplied by CAL_REF_S / Measured.calib, so they read as seconds at the
# reference machine's speed, whatever the host's speed during the run.
CAL_REF_S = 80e-6
_CAL_TABLE = list(range(4096))
_CAL_WORDS = [pow(3, k, 1 << 512) for k in range(1, 65)]


def calibration_kernel():
    """A fixed piece of pure-Python work, never calling qbp: list, dict and
    set traffic and bit operations on 512-bit integers, the mix the decoder
    and the product are made of."""
    table, words, seen, counts, acc, word = _CAL_TABLE, _CAL_WORDS, set(), {}, 0, 0
    for i in range(200):
        j = table[(i * 2654435761) & 4095]
        word ^= words[j & 63]
        acc += (word & words[(j >> 6) & 63]).bit_count()
        if j & 1:
            seen.add(j)
        counts[j & 255] = counts.get(j & 255, 0) + 1
    return acc + len(seen) + len(counts)


@dataclass
class Measured:
    best: list               # pool index -> best seconds over the rounds (inf: never completed)
    walls: dict              # op id -> seconds, completed ops only; op id = round * pool + index
    busy: float              # measured time: the ops, not the kernel runs or the checks
    calib: float             # calibration kernel time, by the estimator of the ops:
                             # the mean over pool positions of the best over rounds
    rounds: int
    attempted: int
    failed: int
    notes: list

    def scale(self):
        """Factor that turns this run's seconds into reference seconds."""
        return CAL_REF_S / self.calib

    def scaled_best(self):
        """Sorted best time of every completed input, in reference seconds."""
        return sorted(b * self.scale() for b in self.best if b != math.inf)


def measure(pool, run_op, check, seconds, min_rounds=1, tracer=None):
    """Make whole rounds over `pool` until `seconds` of measured op time and
    `min_rounds` rounds are done.

    Each round starts with a full garbage collection, so every round finds
    the collector in the same state and an op pays the same collections in
    every round.  Each op is timed alone.  Its output is then checked and
    dropped, so no op runs with earlier outputs alive, and the calibration
    kernel runs twice: once to warm it after the op, then once timed.
    check(index, input, output) gets the pool index and returns a list of
    problems; an op that raises or has problems counts as failed.
    """
    clock = time.perf_counter
    size = len(pool)
    best, calib, walls, notes = [math.inf] * size, [math.inf] * size, {}, []
    busy, rounds, failed = 0.0, 0, 0
    while rounds < min_rounds or busy < seconds:
        gc.collect()
        for index, item in enumerate(pool):
            op = rounds * size + index
            if tracer is not None:
                tracer.op = op
            t0 = clock()
            try:
                out = run_op(item)
            except Exception as exc:        # one failing op must not end the run
                out = exc
            elapsed = clock() - t0
            if tracer is not None:
                tracer.op = None
            busy += elapsed
            if isinstance(out, Exception):
                problems = [f"raised {type(out).__name__}: {out}"]
            else:
                walls[op] = elapsed
                best[index] = min(best[index], elapsed)
                problems = check(index, item, out)
            del out
            if problems:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"round {rounds} op {index}: {'; '.join(problems)}")
            calibration_kernel()
            t0 = clock()
            calibration_kernel()
            calib[index] = min(calib[index], clock() - t0)
        rounds += 1
    return Measured(best, walls, busy, sum(calib) / size, rounds, rounds * size, failed, notes)


# -- build ------------------------------------------------------------------------------


@dataclass(frozen=True)
class BuildInput:
    rung: Rung
    gens: tuple              # generator lists of the matching and dihedral rungs
    graph_seed: int
    cert_seed: int
    diag_seed: int


@dataclass
class BuildOutput:
    cpx: object
    loaded: object
    text: str
    params: object
    certs: tuple
    distances: dict
    diagnostics: list


def build_inputs(seed, ladder):
    """The seeded ladder: fixed shapes, seeded generators, graphs, order and errors."""
    rng = random.Random(stream_seed(seed, "build"))
    inputs = []
    for rung in ladder:
        gens = rung.gens
        if not gens and rung.family == "dihedral":
            order = 2 * rung.size
            gens = tuple(tuple(sorted(rng.sample(range(1, order), 2))) for _ in range(2))
        elif not gens and rung.family == "matching":
            gens = tuple((rng.randrange(1, rung.size),) for _ in range(2))
        inputs.append(BuildInput(rung, gens, rng.getrandbits(32), rng.getrandbits(32),
                                 rng.getrandbits(32)))
    rng.shuffle(inputs)
    return inputs


def _cert_params(rung):
    """(c, epsilon) for each factor; star, matching and incidence factors are
    exact lossless expanders at these values, the others pass at epsilon = 1/2."""
    exact, loose = (Fraction(1), Fraction(0)), (Fraction(1, 4), Fraction(1, 2))
    if rung.family in ("star", "matching"):
        return exact, exact
    if rung.family == "incidence":
        return (Fraction(3, rung.size), Fraction(1, rung.size + 1)), exact
    if rung.family == "toric":
        return (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))
    return loose, loose


def _certify(graph, c, epsilon, seed):
    top = max(0, math.ceil(c * graph.v0_size) - 1)
    if sum(math.comb(graph.v0_size, s) for s in range(1, top + 1)) <= CERT_BUDGET:
        return expansion.certify_expansion(graph, "0to1", c, epsilon, budget=CERT_BUDGET)
    return expansion.certify_expansion(graph, "0to1", c, epsilon, mode="sampled",
                                       trials=CERT_TRIALS, seed=seed)


def _diag_epsilon(degree):
    """Partition loss that makes every seeded diagnostic error partitionable:
    with at most two targets of degree <= 2 the flow always saturates."""
    return {1: Fraction(0), 2: Fraction(1, 2)}.get(degree, Fraction(1))


def _construct(inp):
    rung = inp.rung
    m = rung.size
    if rung.family == "toric":
        return instances.toric_complex(m)
    if rung.family == "star":
        return instances.star_product(m, 3, 2)
    if rung.family == "cayley":
        return instances.left_right_cayley(groups.cyclic_group(m), GENS_A, GENS_B)
    if rung.family == "matching":
        return instances.left_right_cayley(groups.cyclic_group(m), *inp.gens)
    if rung.family == "dihedral":
        return instances.left_right_cayley(groups.dihedral_group(m), *inp.gens)
    if rung.family == "incidence":
        return instances.incidence_star_product(m, 2)
    if rung.family == "random":
        group = groups.dihedral_group(m)
        rng = random.Random(inp.graph_seed)
        x, ax = instances.random_free_action_graph(group, 1, 1, 3, rng)
        y, ay = instances.random_free_action_graph(group, 1, 1, 2, rng)
        return product.balanced_product(x, ax, y, ay)
    raise ValueError(f"unknown rung family {rung.family!r}")


def build_op(inp):
    """One instance from its factors to a certified code."""
    cpx = _construct(inp)
    text = jsonio.canonical_dumps(product.complex_to_json(cpx))
    loaded = product.complex_from_json(json.loads(text))
    code = css.extract_code(loaded)
    params = css.code_params(code)
    (cx, ex), (cy, ey) = _cert_params(inp.rung)
    certs = (_certify(cpx.factor_x, cx, ex, inp.cert_seed),
             _certify(cpx.factor_y, cy, ey, inp.cert_seed + 1))
    distances = {}
    if 2 ** (params.n - params.rank_hx) <= KERNEL_BUDGET:
        distances["z"] = css.brute_distance(code, "z", budget=KERNEL_BUDGET)
        distances["lm"] = css.locally_minimal_distance(code, budget=KERNEL_BUDGET)
    if 2 ** (params.n - params.rank_hz) <= KERNEL_BUDGET:
        distances["x"] = css.brute_distance(code, "x", budget=KERNEL_BUDGET)
    diagnostics = []
    d = loaded.degrees
    if d is not None:
        rng = random.Random(inp.diag_seed)
        g10, g01 = loaded.subgraph("v00_v10"), loaded.subgraph("v00_v01")
        for _ in range(DIAG_ERRORS):
            v10 = frozenset(rng.sample(range(loaded.v10_size), min(2, loaded.v10_size)))
            v01 = frozenset(rng.sample(range(loaded.v01_size), 1))
            p10 = expansion.tree_partition(g10, v10, _diag_epsilon(d.up), d.down)
            p01 = expansion.tree_partition(g01, v01, _diag_epsilon(d.left), d.right)
            report = decoder.region_diagnostics(loaded, v10, v01, p10, p01,
                                                epsilon=certs[0].epsilon)
            diagnostics.append((v10, v01, p10, p01, report))
    return BuildOutput(cpx, loaded, text, params, certs, distances, diagnostics)


def build_digest(out):
    """Bytes of everything deterministic a build op produced."""
    summary = {
        "params": [out.params.n, out.params.k, out.params.rank_hx, out.params.rank_hz],
        "certs": [c.to_json() for c in out.certs],
        "distances": {k: [getattr(r, "d", None), getattr(r, "d_lm_nontrivial", None),
                          r.kernel_dim] for k, r in sorted(out.distances.items())},
        "diagnostics": [[sorted(v10), sorted(v01), r.touched_total, r.stray_total,
                         r.multihit_total, r.excess_total, r.flipped_total, r.lit_total,
                         r.unique_total, r.syndrome_weight]
                        for v10, v01, _, _, r in out.diagnostics],
    }
    return out.text.encode() + canonical(summary)


def check_build(inp, out):
    """Independent checks of one build op (see checks.py), plus known parameters."""
    rung, cpx, params = inp.rung, out.cpx, out.params
    problems = checks.check_complex(cpx) + checks.same_complex(cpx, out.loaded)
    n = cpx.v10_size + cpx.v01_size
    if params.n != n:
        problems.append(f"n = {params.n}, the complex has {n} qubits")
    k = checks.logical_dimension(cpx)
    if params.k != k:
        problems.append(f"k = {params.k}, elimination on the edge lists gives {k}")
    distances = out.distances
    found = (n, params.k, min((r.d for key, r in distances.items() if key in ("x", "z")
                               and r.d is not None), default=None))
    if any(want is not None and got is not None and want != got
           for want, got in zip(rung.known, found)):
        problems.append(f"{rung.family} {rung.size} gave [[n, k, d]] = {list(found)}, "
                        f"known {list(rung.known)}")
    for cert in out.certs:
        if rung.family in ("star", "matching", "incidence") and cert.verdict != "pass":
            problems.append(f"{rung.family} factor certificate failed: {cert.witness}")
        top = cert.max_eligible_size
        if cert.mode == "exhaustive" and cert.verdict == "pass":
            expected = sum(math.comb(cert.v_src_size, s) for s in range(1, top + 1))
            if cert.subsets_checked != expected:
                problems.append(f"exhaustive certificate checked {cert.subsets_checked} "
                                f"subsets, expected {expected}")
    for key in ("x", "z"):
        if key in distances and (distances[key].d is None) != (params.k == 0):
            problems.append(f"d_{key} = {distances[key].d} with k = {params.k}")
    if "lm" in distances and distances["z"].d is not None:
        lm = distances["lm"].d_lm_nontrivial
        if lm is None or lm > distances["z"].d:
            problems.append(f"d_lm = {lm} exceeds d_z = {distances['z'].d}")
    for v10, v01, p10, p01, _ in out.diagnostics:
        problems += checks.check_partition(cpx.edges_v00_v10, v10, p10.assignment)
        problems += checks.check_partition(cpx.edges_v00_v01, v01, p01.assignment)
    return problems


class BuildWorkload:
    def __init__(self, seed, sizes):
        self.seed, self.sizes = seed, sizes
        self.setups = sizes.build_setups
        self.inputs = None
        self.first = {}              # input -> (digest bytes, problems) of its first run
        self.warmup_s = 0.0          # no decoder warm-up here

    def setup(self):
        """Draw the seeded ladder and warm every layer on its small rungs."""
        self.inputs = build_inputs(self.seed, self.sizes.ladder)
        for inp in self.inputs:
            if inp.rung.scale == "small":
                build_op(inp)

    def pool(self):
        return self.inputs

    def pool_size(self):
        return len(self.inputs)

    def run_op(self, inp):
        return build_op(inp)

    def check(self, index, inp, out):
        """Full checks on a rung's first run; a repeat must reproduce its bytes."""
        digest = build_digest(out)
        if inp not in self.first:
            self.first[inp] = (digest, check_build(inp, out))
        first, problems = self.first[inp]
        if first != digest:
            return problems + ["output differs from the first run of the same rung"]
        return problems

    def op_scale(self, op):
        return self.inputs[op % len(self.inputs)].rung.scale

    def digest(self):
        h = hashlib.sha256()
        done = [self.first[inp][0] for inp in self.inputs if inp in self.first]
        for record in done:
            h.update(record)
        return h.hexdigest(), len(done)

    def summary(self):
        return {}

    def crosscheck(self):
        return []


# -- decoding ---------------------------------------------------------------------------


def decoder_config():
    # The harness decodes with exactly this configuration.
    return decoder.DecoderConfig(epsilon=EPSILON, keep_flip_sets=False)


@dataclass(frozen=True)
class Trial:
    side: str                # "z": Z error, decode; "x": X error, decode_x
    error: object            # F2Vector


def write_factor_files(workdir, m):
    """Factor graphs, group and actions of left_right_cayley(Z_m, [1,2], [1,4]),
    written with plain arithmetic as a user would."""
    left = sorted([g, (g - a) % m] for g in range(m) for a in GENS_A)
    right = sorted([g, (g + b) % m] for g in range(m) for b in GENS_B)
    table = [[(g + x) % m for x in range(m)] for g in range(m)]
    files = {
        "left.json": {"v0": m, "v1": m, "edges": left},
        "right.json": {"v0": m, "v1": m, "edges": right},
        "group.json": {"order": m, "mul": table, "label": f"Z{m}"},
        "actions.json": {"left_v0": table, "left_v1": table,
                         "right_v0": table, "right_v1": table},
    }
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj))


def decode_op(code, config, trial):
    """Syndrome, decode, then the residual check on the stabilizer row space."""
    if trial.side == "z":
        syndrome = gf2.mat_vec(code.hx, trial.error)
        result = decoder.decode(code, syndrome, config)
        trivial = code.z_stabilizers.contains(trial.error ^ result.correction)
    else:
        syndrome = gf2.mat_vec(code.hz, trial.error)
        result = decoder.decode_x(code, syndrome, config)
        trivial = code.x_stabilizers.contains(trial.error ^ result.correction)
    return syndrome, result, trivial


class DecodeWorkload:
    """Decoding on left_right_cayley(Z_m, [1,2], [1,4]), built through the CLI."""

    def __init__(self, name, seed, sizes, workdir):
        self.name, self.seed, self.sizes, self.workdir = name, seed, sizes, workdir
        self.dense = name == "decode_dense"
        self.setups = sizes.decode_setups
        self.code = None
        self.config = decoder_config()
        self.checker = None
        self.records = []            # pool index -> record of its first run
        self.problems = []           # pool index -> problems of its first run
        self.warmup_s = 0.0
        if self.dense:
            self.seeds = {side: stream_seed(seed, side) for side in "zx"}
        else:
            self.seeds = {w: stream_seed(seed, f"w{w}") for w in (1, 2, 3, 4)}

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        write_factor_files(self.workdir, self.sizes.cayley_order)
        p = {name: str(self.workdir / f"{name}.json")
             for name in ("left", "right", "group", "actions", "complex")}
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.cli_dispatch(["construct", "--left", p["left"], "--right", p["right"],
                                       "--group", p["group"], "--actions", p["actions"],
                                       "--out", p["complex"]])
        if status != 0:
            raise RuntimeError(f"qbp construct exited with {status}")
        with open(p["complex"]) as fh:
            cpx = product.complex_from_json(json.load(fh))
        self.code = css.extract_code(cpx)
        started = time.perf_counter()
        for side in "zx":
            decode_op(self.code, self.config,
                      Trial(side, gf2.F2Vector.from_support(self.code.n, [0])))
        self.warmup_s = time.perf_counter() - started

    def pool_size(self):
        return self.sizes.dense_pool if self.dense else self.sizes.sparse_pool

    def trial(self, i):
        """Trial i, drawn exactly as harness.run_simulation draws its trial j."""
        n = self.code.n
        if self.dense:
            side, j = "zx"[i % 2], i // 2
            rng = random.Random(harness.derive_trial_seed(self.seeds[side], j))
            threshold = float(DENSE_P)
            support = [q for q in range(n) if rng.random() < threshold]
        else:
            side, weight, j = "z", 1 + i % 4, i // 4
            rng = random.Random(harness.derive_trial_seed(self.seeds[weight], j))
            support = rng.sample(range(n), weight)
        return Trial(side, gf2.F2Vector.from_support(n, support))

    def pool(self):
        return [self.trial(i) for i in range(self.pool_size())]

    def run_op(self, trial):
        return decode_op(self.code, self.config, trial)

    def check(self, index, trial, out):
        """Full checks on a trial's first run; a repeat must reproduce its record."""
        syndrome, result, trivial = out
        record = {"side": trial.side, "error_weight": trial.error.weight,
                  "syndrome_weight": syndrome.weight, "outcome": result.outcome,
                  "iterations": result.iterations, "trivial": trivial,
                  "correction": sorted(result.correction.support)}
        if index < len(self.records):
            first, problems = self.records[index], self.problems[index]
            if first != record:
                return problems + ["output differs from an earlier run of the same trial"]
            return problems
        if self.checker is None:
            self.checker = checks.DecodeChecker(self.code.cpx)
        view = checks.DecodeView(trial.side, trial.error.support, syndrome.support,
                                 result.outcome, result.correction.support, trivial)
        problems = self.checker.check(view)
        if index == len(self.records):
            self.records.append(record)
            self.problems.append(problems)
        return problems

    def op_scale(self, op):
        return None

    def digest(self):
        h = hashlib.sha256()
        for record in self.records:
            h.update(canonical(record))
        return h.hexdigest(), len(self.records)

    def summary(self):
        good = sum(1 for r in self.records if r["outcome"] == "success" and r["trivial"])
        return {"logical_success": (good / len(self.records), len(self.records))}

    def crosscheck(self):
        """Compare the first trials of each stream with harness.run_simulation."""
        problems = []
        count = self.sizes.crosscheck
        if self.dense:
            streams = [(self.seeds["z"], {"flip_probability": DENSE_P}, 0, 2)]
        else:
            streams = [(self.seeds[w], {"weight": w}, w - 1, 4) for w in (1, 2, 3, 4)]
        for master, model, offset, stride in streams:
            config = harness.ExperimentConfig(epsilon=EPSILON, trials=count, seed=master, **model)
            result = harness.run_simulation(self.code, config)
            for j, rec in enumerate(result.records):
                mine = self.records[offset + stride * j]
                theirs = {"outcome": rec.outcome, "iterations": rec.iterations,
                          "syndrome_weight": rec.syndrome_weight,
                          "error_weight": rec.error_weight,
                          "trivial": rec.residual_in_stabilizer}
                if {key: mine[key] for key in theirs} != theirs:
                    problems.append(f"trial {offset + stride * j} differs from "
                                    f"run_simulation: {theirs}")
        return problems


# -- scaling (traced runs only) ----------------------------------------------------------


def loglog_slope(groups_of_points):
    """Least-squares exponent shared by several families (one intercept each)."""
    sxx = sxy = 0.0
    for points in groups_of_points:
        xs = [math.log(x) for x, _ in points]
        ys = [math.log(y) for _, y in points]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        sxx += sum((x - mx) ** 2 for x in xs)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx if sxx else 0.0


def scaling_report(sizes, seed):
    """Fit log-log exponents over small ladders of the decode and build families."""
    clock = time.perf_counter
    config = decoder_config()
    scan, decode_time, cayley_build, star_build = [], [], [], []
    for m in sizes.scaling_cayley:
        t0 = clock()
        cpx = instances.left_right_cayley(groups.cyclic_group(m), GENS_A, GENS_B)
        cayley_build.append((quotient_cells(cpx), clock() - t0))
        code = css.extract_code(cpx)
        scanned, elapsed, trials = 0, 0.0, 16
        master = stream_seed(seed, f"scale{m}")
        for i in range(trials):
            rng = random.Random(harness.derive_trial_seed(master, i))
            error = gf2.F2Vector.from_support(code.n, rng.sample(range(code.n), 1 + i % 4))
            syndrome = gf2.mat_vec(code.hx, error)
            t0 = clock()
            result = decoder.decode(code, syndrome, config)
            elapsed += clock() - t0
            scanned += result.preprocess_vertices_scanned
        scan.append((code.n, scanned / trials))
        decode_time.append((code.n, elapsed / trials))
    for m in sizes.scaling_star:
        t0 = clock()
        cpx = instances.star_product(m, 3, 2)
        star_build.append((quotient_cells(cpx), clock() - t0))
    return {
        "decoder.scan_exponent": (loglog_slope([scan]), "exponent"),
        "decoder.decode_exponent": (loglog_slope([decode_time]), "exponent"),
        "product.construct_exponent": (loglog_slope([cayley_build, star_build]), "exponent"),
    }
