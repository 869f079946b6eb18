"""Output checks against values computed without dplfit.

Zeta values come from ``scipy.special.zeta`` (Hurwitz) and its
s-derivative from mpmath at 30 digits; counts, tail sizes, mean logs and
KS distances come from the benchmark's own tables.  Each check returns a
list of problems, empty when the output is right.
"""

import hashlib
import json
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import zeta

REJECT_LEVEL = 0.05
KS_ABS_TOL = 1e-9
CURVE_REL_TOL = 1e-9


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(x, y, rel=1e-12, abs_tol=1e-15):
    return math.isclose(x, y, rel_tol=rel, abs_tol=abs_tol)


def ks_distance(tail, a, beta):
    """sup_n |N_n/N_a - zeta(s,n)/zeta(s,a)| over a, every observed v and v+1."""
    s = beta + 1.0
    v = tail.values
    pts = np.unique(np.concatenate(([a], v, v + 1)))
    below = np.concatenate(([0], tail.counts.cumsum()))
    emp = (tail.size - below[np.searchsorted(v, pts, side="left")]) / tail.size
    model = zeta(s, pts.astype(np.float64)) / zeta(s, float(a))
    return float(np.max(np.abs(emp - model)))


def _score(beta, a, log_geo_mean):
    """d/d beta of the per-datum log-likelihood: -d/ds ln zeta(s, a) - ln G_a."""
    with mpmath.workdps(30):
        s = mpmath.mpf(beta) + 1
        return float(-mpmath.zeta(s, a, 1) / mpmath.zeta(s, a)) - log_geo_mean


def solves_likelihood(tail, a, beta, tol):
    """The score changes sign within beta +- tol, so the root lies in that interval.

    The score decreases in beta, so its root is the maximum-likelihood
    estimate; ``tol`` is MleConfig().beta_tol.
    """
    log_g = math.fsum(c * math.log(v) for v, c in
                      zip(tail.values.tolist(), tail.counts.tolist())) / tail.size
    return _score(beta - tol, a, log_g) > 0.0 > _score(beta + tol, a, log_g)


def check_fit(rec, table, a, n_sim, tol):
    """Problems with one fit record of a report, at cutoff ``a``."""
    problems = []
    tail = table.tail(a)
    beta = rec["beta_emp"]
    if rec["a"] != a or rec["n_a"] != tail.size or rec["n_sim"] != n_sim:
        return [f"a={a}: a/n_a/n_sim {rec['a']}/{rec['n_a']}/{rec['n_sim']}, "
                f"expected {a}/{tail.size}/{n_sim}"]
    if not solves_likelihood(tail, a, beta, tol):
        problems.append(f"a={a}: beta={beta!r} does not solve the likelihood equation "
                        f"within {tol}")
    if not _close(rec["sigma"], beta / math.sqrt(tail.size)):
        problems.append(f"a={a}: sigma {rec['sigma']!r} != beta/sqrt(n_a)")
    d = ks_distance(tail, a, beta)
    if abs(rec["d_emp"] - d) > KS_ABS_TOL:
        problems.append(f"a={a}: d_emp {rec['d_emp']!r}, own KS distance {d!r}")
    n_exceed = rec["n_exceed"]
    p = n_exceed / n_sim
    if not 0 <= n_exceed <= n_sim or rec["p"] != p:
        problems.append(f"a={a}: p {rec['p']!r} != n_exceed/n_sim = {n_exceed}/{n_sim}")
    if not _close(rec["sigma_p"], math.sqrt(p * (1.0 - p) / n_sim)):
        problems.append(f"a={a}: sigma_p {rec['sigma_p']!r} is not the binomial error")
    if rec["reliable"] != (rec["regenerated"] <= 0.01 * n_sim):
        problems.append(f"a={a}: reliable={rec['reliable']} with "
                        f"{rec['regenerated']} regenerations")
    verdict = "rejected" if p <= REJECT_LEVEL else "not rejected"
    if rec["verdict"] != verdict:
        problems.append(f"a={a}: verdict {rec['verdict']!r}, expected {verdict!r}")
    return problems


def _load_report(path, input_path, n_values, seed, n_sim, analysis):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = []
    if doc.get("analysis") != analysis:
        problems.append(f"analysis {doc.get('analysis')!r}, expected {analysis!r}")
    if doc["input"]["sha256"] != file_digest(input_path):
        problems.append("input.sha256 does not match the input file")
    if doc["input"]["n_values"] != n_values:
        problems.append(f"input.n_values {doc['input']['n_values']}, expected {n_values}")
    if doc["seed"] != seed or doc["n_sim"] != n_sim:
        problems.append(f"seed/n_sim {doc['seed']}/{doc['n_sim']}, expected {seed}/{n_sim}")
    return doc, problems


def check_fit_report(path, input_path, table, a, seed, n_sim, tol):
    doc, problems = _load_report(path, input_path, table.size, seed, n_sim, "fit")
    return problems + check_fit(doc["fit"], table, a, n_sim, tol)


def check_scan_report(path, input_path, table, cutoffs, seed, n_sim, tol):
    """A scan over every cutoff in ``cutoffs``, with a* the first with p > threshold."""
    doc, problems = _load_report(path, input_path, table.size, seed, n_sim, "scan")
    scan = doc["scan"]
    fits = scan["fits"]
    fitted = [f["a"] for f in fits]
    if scan["skipped"]:
        problems.append(f"skipped cutoffs: {scan['skipped']}")
    if fitted != list(cutoffs):
        return problems + [f"fitted cutoffs {fitted[:5]}... ({len(fitted)}), "
                           f"expected {list(cutoffs[:5])}... ({len(cutoffs)})"]
    for rec in fits:
        problems += check_fit(rec, table, rec["a"], n_sim, tol)
    best = next((f for f in fits if f["p"] > scan["p_threshold"]), None)
    expected = (None, None, None) if best is None else (best["a"], best["beta_emp"], best["sigma"])
    got = (scan["a_star"], scan["beta_star"], scan["sigma_star"])
    if got != expected:
        problems.append(f"a*/beta*/sigma* {got}, expected {expected}")
    return problems


def _beta_from_unit_mass(f1):
    """The exponent whose mass at n = 1 (cutoff 1) is f1 = 1/zeta(beta + 1)."""
    target = -math.log(f1)
    return brentq(lambda b: math.log(zeta(b + 1.0, 1.0)) - target, 1e-3, 60.0,
                  xtol=1e-15, rtol=4 * np.finfo(float).eps)


def check_curves(path, table, tol):
    """Curves at cutoff 1: empirical columns from the table, fitted ones from zeta.

    The TSV does not carry beta, so it is recovered from fit_f at n = 1,
    which must equal 1/zeta(beta + 1); that beta must solve the likelihood
    equation, and every fitted column must follow from it.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "n\temp_f\tfit_f\temp_S\tfit_S":
        return [f"curves header {lines[0]!r}"]
    rows = [line.split("\t") for line in lines[1:]]
    n = np.array([int(r[0]) for r in rows])
    emp_f, fit_f, emp_s, fit_s = (np.array([float(r[j]) for r in rows]) for j in (1, 2, 3, 4))
    if n.size != table.values.size or np.any(n != table.values):
        return [f"curves rows: {n.size} values, expected {table.values.size}"]
    problems = []
    size = table.size
    if np.any(emp_f != table.counts / size) or np.any(emp_s != table.survival() / size):
        problems.append("curves emp_f/emp_S differ from the counts")
    beta = _beta_from_unit_mass(fit_f[0])
    if not solves_likelihood(table, 1, beta, tol):
        problems.append(f"curves beta={beta!r} does not solve the likelihood equation")
    s = beta + 1.0
    norm = zeta(s, 1.0)
    nf = n.astype(np.float64)
    if not np.allclose(fit_f, nf ** -s / norm, rtol=CURVE_REL_TOL, atol=0.0):
        problems.append("curves fit_f differs from n^-s / zeta(s, 1)")
    if not np.allclose(fit_s, zeta(s, nf) / norm, rtol=CURVE_REL_TOL, atol=0.0):
        problems.append("curves fit_S differs from zeta(s, n) / zeta(s, 1)")
    return problems
