"""A kill list for the proofs of E membership (ROADMAP item 24(a)).

Each mutant is a one-line change to a proof that ``checks.certificate_soundness``
is there to catch: the whole-ball proof ``ConfidenceState.ball_in_E``, the
chord proof ``_chord_proved``, the score proof ``_E_proved``, their rounding
allowance ``_gap_margin`` and the ball test ``_in_ball``.  A mutant is
installed with ``monkeypatch`` wherever the package binds the name, and the
check runs at the CLI's scale (120 histories, seed 47).  A killed mutant must
make the check report violations.  A survivor is a strict xfail with the
reason it survives, so a stronger check that kills it shows up as an
unexpected pass, and the survivor moves to the killed list.
"""
import math

import numpy as np
import pytest

from mnl_bandit import checks, confidence, harness
from mnl_bandit.choice import _NORM_TOL
from mnl_bandit.confidence import _EXP_MAX, ConfidenceState
from mnl_bandit.estimation import _eigvalsh, _norm, _once, _sq_norm

N_HISTORIES, SEED = 120, 47


def install(monkeypatch, name, fn):
    """``fn`` in place of ``name`` in every module that binds it (``checks``
    and ``harness`` import the proofs by name)."""
    bound = [m for m in (confidence, checks, harness) if name in vars(m)]
    assert bound, name
    for module in bound:
        monkeypatch.setattr(module, name, fn)


def ball_proof(z_scale=2.0, psi_scale=1.0, r_from_fit=True, score_term=True, psi_term=True):
    """``ConfidenceState.ball_in_E``'s proof; the defaults give it unchanged."""

    def ball_in_E(state):
        ev = state.mle.evaluation
        r = state.cfg.S + (_norm(state.theta_hat) if r_from_fit else 0.0)
        curv = float(_eigvalsh(ev.nll_hessian)[-1]) - ev.lam
        bound = (state.mle.score_norm * r if score_term else 0.0) + 0.5 * ev.lam * r * r
        if curv > 0.0 and psi_term:
            z = z_scale * r * (1.0 + _NORM_TOL)
            if z > _EXP_MAX:
                return False
            bound += psi_scale * curv * (math.expm1(z) - z) / (z * z) * r * r
        return bound <= state.beta**2 - confidence._gap_margin(state)

    return ball_in_E


def install_ball_proof(monkeypatch, proof):
    """``proof`` as ``ConfidenceState.ball_in_E``, read once per state as the real one is."""
    once = _once(proof)
    once.__set_name__(ConfidenceState, "ball_in_E")
    monkeypatch.setattr(ConfidenceState, "ball_in_E", once)


def score_proof(scale):
    def _E_proved(ev, state):
        bound = scale * _sq_norm(ev.score) / (2.0 * state.cfg.lam)
        return bound <= state.beta**2 - confidence._gap_margin(state, ev.log_likelihood)

    return _E_proved


def chord_proof(credit=0.5, margin=True):
    def _chord_proved(lo, hi, s, lam, gap_margin):
        return (hi <= lo) | (credit * lam * (s - lo) * (hi - s) > (gap_margin if margin else 0.0))

    return _chord_proved


def ball_test(slack):
    def _in_ball(sq_norm, S):
        return np.sqrt(sq_norm) <= S * (1.0 + slack)

    return _in_ball


def _survivor(reason):
    return pytest.mark.xfail(raises=AssertionError, strict=True, reason=reason)


_WHOLE_BALL_SAMPLES = (
    "the whole-ball part tests 30 random points a history, and the loss gap's "
    "maximum over the sphere is a median 0.735 of the proof's bound"
)
_CHORD_MARGIN = (
    "the chord's 1e-6 relative margin sits far above a float64 sum's rounding; "
    "a smaller credit may be a sound alternative"
)

# (id, installer, reason it survives or None where it is killed)
MUTANTS = [
    ("gap_margin_zero", lambda mp: install(mp, "_gap_margin", lambda state, log_likelihood=None: 0.0), None),
    ("score_bound_x0.5", lambda mp: install(mp, "_E_proved", score_proof(0.5)), None),
    ("score_bound_x0.9", lambda mp: install(mp, "_E_proved", score_proof(0.9)), None),
    ("ball_without_psi", lambda mp: install_ball_proof(mp, ball_proof(psi_term=False)), None),
    ("chord_without_margin", lambda mp: install(mp, "_chord_proved", chord_proof(margin=False)), None),
    ("ball_z_is_r", lambda mp: install_ball_proof(mp, ball_proof(z_scale=1.0)),
     f"{_WHOLE_BALL_SAMPLES}; z = r needs histories where the data's curvature dominates"),
    ("ball_psi_x0.9", lambda mp: install_ball_proof(mp, ball_proof(psi_scale=0.9)),
     f"{_WHOLE_BALL_SAMPLES}; psi x 0.9 needs histories where the data's curvature dominates"),
    ("ball_r_is_S", lambda mp: install_ball_proof(mp, ball_proof(r_from_fit=False)),
     f"{_WHOLE_BALL_SAMPLES}; an ascent on the sphere kills it in 1 of 600 histories"),
    ("ball_without_score", lambda mp: install_ball_proof(mp, ball_proof(score_term=False)),
     "a fit that converges has a score near 0, which hides the dropped term"),
    ("chord_credit_lam", lambda mp: install(mp, "_chord_proved", chord_proof(credit=1.0)), _CHORD_MARGIN),
    ("chord_credit_0.55lam", lambda mp: install(mp, "_chord_proved", chord_proof(credit=0.55)), _CHORD_MARGIN),
    ("ball_test_slack_1e-6", lambda mp: install(mp, "_in_ball", ball_test(1e-6)),
     "a looser ball test only widens what _E_member accepts, and the check "
     "counts points that a proof certifies and _E_member rejects"),
]


@pytest.mark.parametrize(
    "apply",
    [pytest.param(apply, id=name, marks=() if reason is None else _survivor(reason))
     for name, apply, reason in MUTANTS],
)
def test_mutant_fails_the_certificate_check(apply, monkeypatch):
    apply(monkeypatch)
    result = checks.certificate_soundness(N_HISTORIES, seed=SEED)
    assert result.value > 0 and not result.passed, result.detail


def test_the_copied_ball_proof_is_the_real_one(monkeypatch):
    # The ball mutants edit ``ball_proof``'s copy of the proof; unedited, it
    # gives the real proof's verdict on every state the check builds.
    real, copy, seen = ConfidenceState.ball_in_E.compute, ball_proof(), []

    def both(state):
        seen.append(real(state))
        assert copy(state) == seen[-1]
        return seen[-1]

    install_ball_proof(monkeypatch, both)
    assert checks.certificate_soundness(N_HISTORIES, seed=SEED).passed
    assert True in seen and False in seen
