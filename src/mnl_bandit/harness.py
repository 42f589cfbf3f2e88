"""Experiment orchestration: seeded runs, regret accounting, diagnostics, IO.

A run is fully determined by (config, seed).  Each round serves contexts,
fits the MLE, builds the confidence snapshot, lets the policy decide,
samples the consumer's choice, and appends the round to the history.  A
config accepts S up to ``S_MAX`` and prices up to ``PRICE_MAX``, which
keeps every exponential and every price-weighted sum of a run in float64's
range.  The per-round trace is written as CSV.  ``RoundRecord``
declares its columns, in order, each with its format, and the header, the
row format and the split into integer and real columns follow from it:

    t,assortment,outcome,opt_value,oracle_value,inst_regret,cum_regret,
    gamma,beta,covered,dev_H,dev_bound

Reals are printed with 17 significant digits, so reruns are byte-identical.
A ``RunLog`` holds the records and reads its total regret and whole-run
coverage off them; its metadata reads the regularization off the config.
Diagnostics that need theta_star (coverage, deviation norms, the potential
checks) are simulator-side only; the policy never reads them.  A run keeps
theta_star's penalized log-likelihood, g, H_t(theta_star) and the sum of
the purchased items' contexts as running sums over the rounds played, for
its coverage and its deviation norm, so theta_star's side never passes
over the history.  Its score is that purchase sum minus g.  E's coverage
flag is decided by ``confidence._E_proved`` from that score where the
round has not formed theta_hat's log-likelihood: the penalized
log-likelihood is lam-strongly concave, so theta_star's loss gap is at
most ||score||^2 / (2 lam), and where that clears beta^2 by
``confidence._gap_margin`` theta_star is in E.  Only where it does not, or
where theta_hat's log-likelihood is formed already and reading it costs
less than the proof, does ``_E_member`` decide; theta_star's ball test is
made once a run, since theta_star is fixed.  A policy names the
assortment it plays by its indices; the assortment's record, one per
assortment a pool plays (the oracle's too), picks and checks its contexts
and holds theta_star's law, revenue and round terms there.  On a fixed pool
each is built once a run, and every later round that plays it reads it.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from itertools import compress
from operator import attrgetter

import numpy as np

from . import __version__
from .choice import (
    AssortmentContexts,
    _distribution,
    expected_revenue,
    finite_number,
    integer_at_least,
    sample_choice,
)
from .confidence import (
    ConfidenceConfig,
    ConfidenceState,
    _C_member,
    _E_member,
    _E_proved,
    _in_ball,
    build_confidence_state,
    default_lambda,
)
from .estimation import History, _gram, _solve, _sq_norm, matrix_V
from .policy import (
    Decision,
    PolicyKind,
    assortment_count,
    bonus_ucb_step,
    cb_mnl_step,
    check_search,
    oracle_assortment,
    random_assortment,
)
from .simulator import (
    FIXED_POOL,
    Instance,
    InstanceConfig,
    TAG_OUTCOME,
    TAG_POLICY,
    estimate_kappa,
    make_instance,
    serve_contexts,
    stream,
)

__all__ = [
    "ExperimentConfig",
    "RoundRecord",
    "RunLog",
    "RunSummary",
    "run_experiment",
    "run_many",
    "elliptical_potential_check",
    "summarize_runs",
    "curve_mean_stderr",
    "save_runs",
    "read_run_csv",
    "read_run_metadata",
    "check_aggregable",
    "loglog_slope",
    "CSV_COLUMNS",
    "CSV_HEADER",
    "CSV_REALS",
    "S_MAX",
    "PRICE_MAX",
]

# The largest S a run accepts, so that its arithmetic stays in float64's
# range (up to about e^709.78).  With ||x|| <= 1 and theta in the S-ball
# every utility has |u| <= S, so
# - ``policy._attraction``'s sums over an assortment are at most 1 + K e^S
#   and K p_max e^S;
# - an item's share mu and the rest 1 - mu are each at least
#   e^-S / (1 + K e^S) >= e^-2S / (K + 1), and mu (1 - mu) is at least half
#   the smaller, so kappa_hat <= 2 (K + 1) e^2S is finite;
# - ``bonus_ucb``'s bonus adds at most K c2 / lam (||x||^2 in the V^-1 norm
#   is at most 1 / lam), that is 4 M K kappa_hat (1 + 2S)^2 gamma^2 / lam.
# At S = 300, e^2S = e^600 leaves a factor above 1e47 for K, the prices and
# gamma^2 / lam.  ``bonus_ucb`` also scores theta_hat, outside the S-ball:
# its penalized likelihood is at least the one at 0, so ||theta_hat||^2 <=
# 2 t log(1 + K) / lam, below 709^2 while t log(1 + K) / lam < 2.5e5.
S_MAX = 300.0

# The largest price a run accepts.  Prices scale the revenue side alone,
# and with p_max <= PRICE_MAX and S <= S_MAX (e^S < 2e130)
# - ``policy._attraction``'s price-weighted sums, at most K p_max e^S, are
#   below 2e149 K, and ``policy._static_optimum``'s Dinkelbach scores
#   v_i (p_i - lam), at most 2 p_max e^S in size, below 4e149;
# - ``_static_optimum``'s tau = 32 (K + 2) u p_max (1 + K v_max), u the unit
#   roundoff and v_max <= e^S, is below 64 (K + 2) u K p_max e^S < 2e136 K^2;
# - the ascent's revenue gradient has norm at most p_max, so its square is
#   at most 1e38, and T rounds of regret sum to at most T p_max.
# ``bonus_ucb``'s theta_hat, outside the S-ball, is covered as far as its
# unit-price sums are: its price-weighted sums are at most K p_max
# e^||theta_hat||, finite while ||theta_hat|| < 666 - log K, which the bound
# on ||theta_hat|| above gives while t log(1 + K) / lam < 2.1e5 (K <= 10^6,
# as the enumeration guard has it for that policy).
PRICE_MAX = 1e19

# Smallest value each integer run setting accepts; InstanceConfig checks d, N and K.
_INT_MINIMA = dict(T=0, restarts=1, n_dirs=0, refine_top=0)

# Config keys that say which seeds ran and where they were written; runs
# that differ only in these belong to the same experiment.
_RUN_SELECTORS = {"seeds", "out_dir"}


@dataclass
class ExperimentConfig(InstanceConfig):
    """The problem's shape plus everything else a run needs besides the
    seed; JSON round-trippable.

    Construction validates every field, the confidence settings derived
    from them included, and raises a ``ValueError`` that names the field.
    """

    T: int = 500
    policy: str = PolicyKind.CB_MNL_E.value
    delta: float = 0.1
    lambda_override: float | None = None
    restarts: int = 5  # ascent starts: the anchor and the first restarts-1 screening points
    n_dirs: int = 16  # screening boundary points of E or C; at least restarts - 1
    refine_top: int = 1  # 1 refines the screening leader by ascent, 0 keeps its value
    track_c_stats: bool = True  # per-round coverage of the norm-based set (covered_C)
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str | None = None

    def __post_init__(self) -> None:
        super().__post_init__()  # the shape fields, before ``lam`` reads d and K
        if self.prices is not None:  # a list, as JSON gives it back
            self.prices = self.prices.tolist() if isinstance(self.prices, np.ndarray) else list(self.prices)
        for name, least in _INT_MINIMA.items():
            integer_at_least(name, getattr(self, name), least)
        check_search(self.restarts, self.n_dirs, self.refine_top)
        if self.lambda_override is not None:
            if finite_number("lambda_override", self.lambda_override) < 1.0:
                raise ValueError(f"lambda_override must be >= 1 or null, got {self.lambda_override}")
        kinds = [kind.value for kind in PolicyKind]
        if self.policy not in kinds:
            raise ValueError(f"policy must be one of {', '.join(kinds)}, got {self.policy!r}")
        if not isinstance(self.track_c_stats, bool):
            raise ValueError(f"track_c_stats must be true or false, got {self.track_c_stats!r}")
        if (
            not isinstance(self.seeds, (list, tuple))
            or not self.seeds
            or any(isinstance(s, bool) or not isinstance(s, int) or s < 0 for s in self.seeds)
        ):
            raise ValueError(f"seeds must be a nonempty list of integers >= 0, got {self.seeds!r}")
        self.seeds = list(self.seeds)
        if repeated := sorted(s for s, n in Counter(self.seeds).items() if n > 1):
            named = ", ".join(map(str, repeated))
            raise ValueError(f"seeds must not repeat a seed, got {named} more than once")
        if self.S > S_MAX:
            raise ValueError(f"S must be at most {S_MAX}, which keeps a run in float64's range, got {self.S}")
        if self.prices is not None and max(self.prices) > PRICE_MAX:
            raise ValueError(
                f"prices must be at most {PRICE_MAX:g}, which keeps a run in float64's range, "
                f"got {float(max(self.prices))!r}"
            )
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ValueError(f"out_dir must be a path or null, got {self.out_dir!r}")
        # delta and lam are checked here, then, for a policy that
        # enumerates, the number of assortments.
        self.confidence_config()
        if self.policy in (PolicyKind.BONUS_UCB, PolicyKind.RANDOM):
            assortment_count(self.N, self.K)

    @property
    def lam(self) -> float:
        if self.lambda_override is not None:
            return float(self.lambda_override)
        return default_lambda(self.d, self.K, max(self.T, 1))

    @property
    def tracks_C(self) -> bool:
        """Whether a run tests theta_star's membership in the norm-based set
        every round: when asked to, and always under ``cb_mnl_c``."""
        return self.track_c_stats or self.policy == PolicyKind.CB_MNL_C

    def confidence_config(self) -> ConfidenceConfig:
        return ConfidenceConfig(d=self.d, K=self.K, delta=self.delta, lam=self.lam, S=self.S)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{', '.join(unknown)} is not a config field")
        return cls(**data)


_REAL = "%.17g"  # 17 significant digits read back as the same float


def _column(fmt: str, text=None):
    """A run CSV column: the field printed by ``fmt``, after ``text`` if given."""
    return field(metadata={"format": fmt, "text": text})


@dataclass
class RoundRecord:
    """One round of a run.  Each field declared by ``_column`` is a column of
    the run CSV, in declaration order, and declares how it is printed."""

    t: int = _column("%d")
    assortment: tuple[int, ...] = _column("%s", lambda a: "|".join(map(str, a)))
    outcome: int = _column("%d")
    opt_value: float = _column(_REAL)
    oracle_value: float = _column(_REAL)
    inst_regret: float = _column(_REAL)
    cum_regret: float = _column(_REAL)
    gamma: float = _column(_REAL)
    beta: float = _column(_REAL)
    covered: bool = _column("%d")
    dev_H: float = _column(_REAL)
    dev_bound: float = _column(_REAL)
    covered_C: bool | None = None  # theta_star in C: not in the CSV, counted in the metadata


_CSV_FIELDS = [f for f in fields(RoundRecord) if "format" in f.metadata]
CSV_COLUMNS = tuple(f.name for f in _CSV_FIELDS)
CSV_HEADER = ",".join(CSV_COLUMNS)
CSV_REALS = tuple(f.metadata["format"] == _REAL for f in _CSV_FIELDS)  # per column: is it a real?
_ROW_FORMAT = ",".join(f.metadata["format"] for f in _CSV_FIELDS)


@dataclass
class RunLog:
    cfg: ExperimentConfig
    seed: int
    records: list[RoundRecord]
    instance: Instance
    kappa_hat: float
    wall_time: float
    mle_failures: int
    history: History
    newton_steps: int = 0  # Newton iterations summed over the run's MLE fits

    @property
    def total_regret(self) -> float:
        return self.records[-1].cum_regret if self.records else 0.0

    @property
    def coverage_all(self) -> bool:
        return all(r.covered for r in self.records)

    def cum_regret_curve(self) -> np.ndarray:
        return np.array([r.cum_regret for r in self.records])

    def csv_text(self) -> str:
        columns = []
        for f in _CSV_FIELDS:
            values, text = map(attrgetter(f.name), self.records), f.metadata["text"]
            columns.append(values if text is None else map(text, values))
        return "\n".join([CSV_HEADER, *map(_ROW_FORMAT.__mod__, zip(*columns))]) + "\n"

    def metadata(self) -> dict:
        # Rounds whose norm-based set held theta_star; None where the run did not test it.
        covered_c = sum(r.covered_C for r in self.records) if self.cfg.tracks_C else None
        return {
            "config": self.cfg.to_dict(),
            "seed": self.seed,
            "lambda": self.cfg.lam,
            "kappa_hat": self.kappa_hat,
            "total_regret": self.total_regret,
            "coverage_all": self.coverage_all,
            "covered_C_rounds": covered_c,
            "mle_failures": self.mle_failures,
            "newton_steps": self.newton_steps,
            "wall_time_s": self.wall_time,
            "version": __version__,
            # Count-compressed history size: distinct context blocks and their rows.
            "history_blocks": self.history.n_blocks,
            "history_rows": self.history.n_items,
        }


class _StarLaw:
    """One played assortment's record: its checked contexts, theta_star's
    choice distribution and revenue there, and the terms a round on it adds
    to ``_StarSums``, all from its K rows alone.

    One ``choice._shifted_exp`` pass gives both the distribution and the
    log-normalizer lse = log(1 + sum_i exp u_i) = m + log(total), which
    stays finite for any utility; the curvature term is ``_Evaluation.H``'s
    formula on the assortment's rows.
    """

    def __init__(self, ass: AssortmentContexts, theta_star: np.ndarray):
        self.ass = ass
        self.u = u = ass.contexts @ theta_star
        self.dist, m, total = _distribution(u)
        ctx, mu = ass.contexts, self.dist.item_probs
        self.revenue = float(mu @ ass.prices)  # as ``expected_revenue`` gives it
        self.lse = float(m) + math.log(total)
        self.g = mu @ ctx  # sum_i mu_i x_i
        self.H = _gram(ctx, mu * (1.0 - mu), 0.0)  # sum_i mu_i (1 - mu_i) x_i x_i^T


class _PoolRecords(dict):
    """The ``_StarLaw`` of each assortment played from one pool, by its indices.

    A run keeps one for its fixed pool, or a new one for each fresh pool.
    """

    def __init__(self, pool: np.ndarray, instance: Instance):
        super().__init__()
        self.pool, self.instance = pool, instance

    def of(self, indices: tuple[int, ...]) -> _StarLaw:
        """The record of ``indices``, made on its first appearance from the
        contexts ``from_pool`` picks and checks."""
        law = self.get(indices)
        if law is None:
            ass = AssortmentContexts.from_pool(self.pool, indices, self.instance.prices)
            law = self[indices] = _StarLaw(ass, self.instance.theta_star)
        return law


class _StarSums:
    """theta_star's penalized log-likelihood, g, H and score over the rounds played.

    Running sums, one round added at a time, exposing what ``_E_member``,
    ``_C_member`` and ``_E_proved`` read off an evaluation:
    ``log_likelihood``, ``sq_norm``, ``g``, ``H``, which is H_t(theta_star),
    and ``score``.  They start at the ridge's terms, as an evaluation on an
    empty history would give.  The score, sum_rows (c - n mu) x - lam
    theta_star, is the running sum of the purchased items' contexts less g.
    """

    def __init__(self, theta_star: np.ndarray, lam: float):
        self.sq_norm = _sq_norm(theta_star)
        self.log_likelihood = -0.5 * lam * self.sq_norm
        self.g = lam * theta_star
        self.H = lam * np.eye(theta_star.shape[0])
        self.purchased = np.zeros(theta_star.shape[0])  # sum of the purchased items' contexts

    @property
    def score(self) -> np.ndarray:
        return self.purchased - self.g

    def add(self, law: _StarLaw, outcome: int) -> None:
        """Add a round played on ``law``'s assortment that drew ``outcome``."""
        self.log_likelihood += (law.u[outcome - 1] if outcome else 0.0) - law.lse
        if outcome:
            self.purchased += law.ass.contexts[outcome - 1]
        self.g += law.g
        self.H += law.H


def _policy_decision(
    kind: PolicyKind,
    pool: np.ndarray,
    history: History,
    ccfg: ConfidenceConfig,
    state: ConfidenceState,
    instance: Instance,
    cfg: ExperimentConfig,
    kappa_hat: float,
    rng: np.random.Generator,
    laws: _PoolRecords,
) -> Decision:
    prices = instance.prices
    if kind in (PolicyKind.CB_MNL_E, PolicyKind.CB_MNL_C):
        return cb_mnl_step(
            pool,
            history,
            ccfg,
            state,
            set_kind="E" if kind is PolicyKind.CB_MNL_E else "C",
            rng=rng,
            prices=prices,
            restarts=cfg.restarts,
            n_dirs=cfg.n_dirs,
            refine_top=cfg.refine_top,
            contexts_of=lambda indices: laws.of(indices).ass,
        )
    if kind is PolicyKind.BONUS_UCB:
        return bonus_ucb_step(pool, history, ccfg, state, kappa_hat=kappa_hat, prices=prices)
    if kind is PolicyKind.RANDOM:
        ass = laws.of(random_assortment(instance.N, instance.K, rng)).ass
        return Decision(ass.indices, state.theta_hat, expected_revenue(ass, state.theta_hat))
    raise ValueError(f"unhandled policy kind {kind}")


def run_experiment(cfg: ExperimentConfig, seed: int) -> RunLog:
    """One seeded run; deterministic in (cfg, seed)."""
    t_start = time.perf_counter()
    kind = PolicyKind(cfg.policy)
    instance = make_instance(cfg, seed)
    ccfg = cfg.confidence_config()
    kappa = estimate_kappa(instance)

    history = History(cfg.d)
    records: list[RoundRecord] = []
    theta_star = instance.theta_star
    cum = 0.0
    mle_failures = 0
    newton_steps = 0
    previous_fit = None  # the last round's MleResult, which warm-starts the next fit
    at_star = _StarSums(theta_star, ccfg.lam)  # over the rounds before the current one
    star_in_ball = bool(_in_ball(at_star.sq_norm, ccfg))  # theta_star is fixed: one test a run
    track_c = cfg.tracks_C

    # The pool's oracle and theta_star's records on it, by assortment.
    oracle: Decision | None = None
    laws: _PoolRecords | None = None
    bound_factor = 2.0 * (1.0 + 2.0 * cfg.S)

    rng_policy = stream(seed, TAG_POLICY)
    rng_outcome = stream(seed, TAG_OUTCOME)
    for t in range(1, cfg.T + 1):
        pool = serve_contexts(instance, t)
        state = build_confidence_state(history, ccfg, t, theta0=previous_fit)
        if not state.mle.converged:
            mle_failures += 1
        newton_steps += state.mle.iterations
        previous_fit = state.mle

        if t == 1 or cfg.context_mode != FIXED_POOL:
            laws = _PoolRecords(pool, instance)
            best = laws.of(oracle_assortment(pool, theta_star, instance.K, instance.prices))
            oracle = Decision(best.ass.indices, theta_star.copy(), best.revenue)
        decision = oracle if kind is PolicyKind.ORACLE else _policy_decision(
            kind, pool, history, ccfg, state, instance, cfg, kappa, rng_policy, laws
        )
        oracle_value = oracle.optimistic_value

        # theta_star's distribution on the played assortment draws the
        # outcome (as ``environment_step`` does), and its revenue there
        # serves the regret.
        played = decision.assortment
        law = laws.of(played)
        outcome = sample_choice(law.dist, rng_outcome)

        inst_regret = oracle_value - law.revenue
        cum += inst_regret

        # The score's proof spares forming theta_hat's log-likelihood; where
        # the round has formed it already (E's boundary search reads it),
        # the exact test costs less than the proof.
        if not star_in_ball:
            covered_e = False
        elif "log_likelihood" not in vars(state.mle.evaluation) and _E_proved(at_star, ccfg, state):
            covered_e = True
        else:
            covered_e = bool(_E_member(at_star, ccfg, state)[0])
        covered_c = bool(_C_member(at_star, ccfg, state)[0]) if track_c else None
        covered = covered_c if kind is PolicyKind.CB_MNL_C else covered_e

        dtheta = decision.theta_used - theta_star
        dev_h = math.sqrt(max(float(dtheta @ at_star.H @ dtheta), 0.0))
        dev_bound = bound_factor * state.gamma

        records.append(
            RoundRecord(
                t=t,
                assortment=played,
                outcome=outcome,
                opt_value=decision.optimistic_value,
                oracle_value=oracle_value,
                inst_regret=inst_regret,
                cum_regret=cum,
                gamma=state.gamma,
                beta=state.beta,
                covered=covered,
                dev_H=dev_h,
                dev_bound=dev_bound,
                covered_C=covered_c,
            )
        )

        history.append(law.ass, outcome)
        at_star.add(law, outcome)

    return RunLog(
        cfg=cfg,
        seed=seed,
        records=records,
        instance=instance,
        kappa_hat=kappa,
        wall_time=time.perf_counter() - t_start,
        mle_failures=mle_failures,
        newton_steps=newton_steps,
        history=history,
    )


def _run_one(args) -> RunLog:
    cfg_dict, seed = args
    return run_experiment(ExperimentConfig.from_dict(cfg_dict), seed)


def run_many(cfg: ExperimentConfig, seeds=None, jobs: int = 1) -> list[RunLog]:
    """Independent runs across seeds, in up to ``jobs`` processes (at most one per seed).

    A worker task carries the config with its own seed as the seed list, so
    rebuilding it checks one seed, not all of them; each returned log
    carries ``cfg`` itself, as a serial run's does.
    """
    if seeds is None:
        seeds = cfg.seeds
    seeds = list(seeds)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    # Under fork the pool starts all its workers at the first submit: one per run at most.
    workers = min(jobs, len(seeds))
    if workers <= 1:
        return [run_experiment(cfg, s) for s in seeds]
    # Imported here: the pool's modules (multiprocessing, socket, logging)
    # would otherwise load with every import of the package.
    from concurrent.futures import ProcessPoolExecutor

    base = cfg.to_dict()
    tasks = [({**base, "seeds": [s]}, s) for s in seeds]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        logs = list(pool.map(_run_one, tasks))
    for log in logs:
        log.cfg = cfg
    return logs


def elliptical_potential_check(run: RunLog) -> tuple[float, float, float, float]:
    """Both sides of the potential and determinant-trace inequalities on a finished run.

    With J_t = H_t(theta_star) built from the rounds actually played,

        sum_t min(sum_i ||sqrt(w_i) x_i||^2_{J_t^-1}, 1) <= 2 log(det J_{T+1} / lam^d)
        det(V_{T+1}) <= (lam + T K / d)^d,

    returned as (potential_lhs, potential_rhs, det_trace_lhs, det_trace_rhs).
    The potential replays the records through one ``_PoolRecords`` per pool,
    as the run does (the fixed pool, or each regenerated fresh draw); V, the
    offers T and the widest block K come off the compressed history.
    """
    history = run.history
    d = history.dim
    lam = run.cfg.lam
    instance = run.instance
    j_mat = lam * np.eye(d)
    lhs = 0.0
    laws = None
    for r in run.records:
        if laws is None or instance.context_mode != FIXED_POOL:
            laws = _PoolRecords(serve_contexts(instance, r.t), instance)
        # The run's curvature term J_A = sum_i w_i x_i x_i^T, w = mu(1 - mu):
        # sum_i w_i ||x_i||^2 in the J_t^-1 norm is tr(J_t^-1 J_A).
        j_a = laws.of(r.assortment).H
        lhs += min(float(np.trace(_solve(j_mat, j_a))), 1.0)
        j_mat = j_mat + j_a
    _, logdet = np.linalg.slogdet(j_mat)
    rhs = 2.0 * (logdet - d * math.log(lam))

    det_v = float(np.linalg.det(matrix_V(history, lam)))
    n_rounds = int(history.offers.sum())
    k_max = int(np.bincount(history.seg_ids).max(initial=0))
    dt_rhs = (lam + n_rounds * k_max / d) ** d
    return lhs, rhs, det_v, dt_rhs


@dataclass
class RunSummary:
    n_runs: int
    T: int
    mean_cum_regret: np.ndarray
    stderr_cum_regret: np.ndarray
    coverage_rate: float
    final_mean_regret: float
    loglog_slope: float


def loglog_slope(curve: np.ndarray) -> float:
    """Least-squares slope of log cum-regret against log t on the second half of the rounds."""
    curve = np.asarray(curve, dtype=float)
    T = curve.shape[0]
    ts = np.arange(1, T + 1)
    lo = max(int(0.5 * T), 1)
    sel = (ts >= lo) & (curve > 0)
    if sel.sum() < 2:
        return float("nan")
    coef = np.polyfit(np.log(ts[sel]), np.log(curve[sel]), 1)
    return float(coef[0])


def check_aggregable(lengths: dict[str, int], configs: dict[str, dict]) -> None:
    """Raise one ValueError naming every reason the runs cannot be aggregated:
    more than one length, or configs that differ outside the run selectors.

    Each key names where its value came from: a run CSV in ``lengths``, its
    metadata JSON in ``configs``, or ``run i`` for an in-memory log.
    """
    problems = []
    if len(set(lengths.values())) > 1:
        listing = ", ".join(f"{src} ({n} rounds)" for src, n in lengths.items())
        problems.append(f"runs have different lengths: {listing}")
    ref_src, ref = next(iter(configs.items()), (None, {}))
    diffs = []
    for src, cfg in configs.items():
        keys = (ref.keys() | cfg.keys()) - _RUN_SELECTORS
        if differ := sorted(k for k in keys if ref.get(k) != cfg.get(k)):
            diffs.append(f"{src} differs from {ref_src} in {', '.join(differ)}")
    if diffs:
        problems.append("runs were produced under different configs: " + "; ".join(diffs))
    if problems:
        raise ValueError("; ".join(problems))


def summarize_runs(logs: list[RunLog]) -> RunSummary:
    """Aggregate runs sharing one length and one config, run selectors aside:
    mean/se curves, coverage, tail slope."""
    if not logs:
        raise ValueError("no runs to summarize")
    check_aggregable(
        {f"run {i}": len(log.records) for i, log in enumerate(logs)},
        {f"run {i}": log.cfg.to_dict() for i, log in enumerate(logs)},
    )
    curves = np.vstack([log.cum_regret_curve() for log in logs])
    mean, stderr = curve_mean_stderr(curves)
    coverage = sum(log.coverage_all for log in logs) / len(logs)
    return RunSummary(
        n_runs=len(logs),
        T=curves.shape[1],
        mean_cum_regret=mean,
        stderr_cum_regret=stderr,
        coverage_rate=coverage,
        final_mean_regret=float(mean[-1]) if mean.size else 0.0,
        loglog_slope=loglog_slope(mean),
    )


def curve_mean_stderr(curves: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-round mean and standard error of equal-length curves, one per row.

    The standard error is zero for a single curve.
    """
    n = curves.shape[0]
    mean = curves.mean(axis=0)
    if n > 1:
        return mean, curves.std(axis=0, ddof=1) / math.sqrt(n)
    return mean, np.zeros_like(mean)


def read_run_csv(path: str) -> list[list[str]]:
    """The fields of each row of a run CSV, as written.

    ValueError naming the file unless its header is ``CSV_HEADER``, every
    row has one field per column and every real field parses as a number.
    """
    try:
        with open(path) as fh:
            if fh.readline().rstrip("\n") == CSV_HEADER:
                rows = [line.rstrip("\n").split(",") for line in fh]
                if all(len(r) == len(CSV_REALS) for r in rows):
                    for r in rows:
                        list(map(float, compress(r, CSV_REALS)))
                    return rows
    except ValueError:  # a real that is not a number, or bytes that are not text
        pass
    raise ValueError(f"{path} does not look like a run CSV")


def read_run_metadata(path: str) -> dict:
    """A run's metadata JSON, whose ``config`` is an object; ValueError naming the file otherwise."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or bytes that are not text
            raise ValueError(f"{path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("config"), dict):
        raise ValueError(f"{path} holds no run config")
    return data


def save_runs(logs: list[RunLog], out_dir) -> list[str]:
    """Write per-run CSV and metadata JSON files; returns the CSV paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for log in logs:
        base = f"run_{log.cfg.policy}_seed{log.seed}"
        csv_path = os.path.join(out_dir, base + ".csv")
        with open(csv_path, "w", newline="") as fh:
            fh.write(log.csv_text())
        with open(os.path.join(out_dir, base + ".json"), "w") as fh:
            json.dump(log.metadata(), fh, indent=2)
        paths.append(csv_path)
    return paths
