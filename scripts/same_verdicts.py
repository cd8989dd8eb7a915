"""Check that this tree's identifiability checker gives another checkout's verdicts.

A refactor of ``fimnar.identify`` is meant to leave every verdict as it
was.  This script enumerates a fixed grid of models and runs
``check_model`` on each (and ``check_single`` too when the model has one
component), once on this tree and once on the checkout given by
``--parent``, each in a fresh interpreter on that tree's ``src/``.  It
compares status, rule, certificate and notes, or the type and message of
the exception raised, case by case.  It prints the case count, how often
each ``Rule`` fired in this tree and the first differences, and it exits 1
on any difference.

The grid crosses:

- families (normal, bernoulli, gamma, poisson; mixtures are normal);
- response bases and component mean formulas over continuous ``x`` and
  ``w`` and a binary ``b``: ungated, gated on a categorical ``z``, and
  gated on ``x``;
- coefficient patterns: generic, zeros (or values below the tolerance)
  in the first component, mirror images, equal and nearly equal slopes,
  arithmetic and square slopes;
- K = 1, 2, 3, with variance/weight patterns that do and do not satisfy
  the Example 5/6 relation ``sigma^2/2 + log pi``, just inside and just
  outside its tolerance, and a zero weight;
- ``values_known`` and ``sign_beta_known``;
- the covariate kinds as declared, with ``x`` read as binary, and with
  ``w`` undeclared (which raises wherever ``w`` is referenced).

Usage:
    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python scripts/same_verdicts.py --parent /tmp/parent
"""

import argparse
import itertools
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SHOW = 10  # differences printed in full

RESPONSE_BASES = (
    "1", "x", "1 + x", "1 + x + x^2", "1 + w", "1 + x*w", "1 + b", "1 + x + b",
    "x + w", "[z=1](1 + x) + [z=2](1 + x)", "1 + [x=1]w",
)
MEAN_FORMULAS = (
    "1", "1 + x", "1 + x + x^2", "x^2", "1 + x^3", "1 + w", "1 + x + w", "1 + b",
    "1 + x + b", "1 + x*w", "[z=1](1 + x) + [z=2](1 + x + x^2)", "[z=1](1 + b) + [z=2]1",
    "1 + [x=1]w",
)
# mixture components draw from fewer formulas, K = 3 from fewer still
MIXTURE_FORMULAS = ("1 + x", "1 + x + x^2", "x^2", "1 + x^3", "1 + w", "1 + x + w", "1 + b",
                    "[z=1](1 + x) + [z=2](1 + x + x^2)", "1 + [x=1]w")
MIXTURE3_FORMULAS = ("1 + x", "1 + x + x^2", "x^2", "1 + x^3", "1 + b")
COEF_PATTERNS = (
    "generic", "zero-first", "tiny-first", "mirror", "equal", "near-equal", "arithmetic", "squares",
)
SINGLE_FAMILIES = (("normal", 1.0), ("bernoulli", None), ("gamma", 2.0), ("poisson", None))
COEF_TOL = 1e-9  # fimnar.identify.COEF_TOL, which both trees share
_EX_RELATION = 1.0 + 2.0 * (math.log(0.6) - math.log(0.4))
MIXING = {  # name: (variances, weights)
    2: {
        "equal": ((1.0, 1.0), (0.5, 0.5)),
        "relation": ((1.0, _EX_RELATION), (0.6, 0.4)),
        "equal-variance": ((1.0, 1.0), (0.3, 0.7)),
        "negative-ratio": ((2.0, 1.0), (0.7, 0.3)),
        "positive-ratio": ((2.0, 1.0), (0.3, 0.7)),
        "near-relation": ((1.0, 1.0 + 1.5 * COEF_TOL), (0.5, 0.5)),
        "beyond-relation": ((1.0, 1.0 + 2.5 * COEF_TOL), (0.5, 0.5)),
        "zero-weight": ((1.0, 2.0), (0.0, 1.0)),
    },
    3: {
        "equal": ((1.0, 1.0, 1.0), (0.25, 0.25, 0.5)),
        "distinct": ((1.0, 2.0, 3.0), (0.2, 0.3, 0.5)),
        "zero-weight": ((1.0, 1.0, 2.0), (0.0, 0.5, 0.5)),
    },
}


def _coefficients(pattern: str, i: int, basis) -> tuple:
    """Coefficients of component ``i`` over ``basis`` under a named pattern."""
    out = []
    for j, term in enumerate(basis.terms):
        base = 1.0 + j
        if pattern == "generic":
            c = 0.5 + j + 0.25 * i
        elif pattern in ("zero-first", "tiny-first"):  # tiny: below COEF_TOL, so inactive
            small = 0.0 if pattern == "zero-first" else 0.5 * COEF_TOL
            c = (1.0 if term.is_constant else small) if i == 0 else 0.5 + j + 0.25 * i
        elif pattern == "mirror":
            c = base if i % 2 == 0 else -base
        elif pattern == "equal":
            c = base
        elif pattern == "near-equal":  # distinct, but within COEF_TOL of each other
            c = base + 0.5 * COEF_TOL * i
        elif pattern == "arithmetic":
            c = base * (i + 1)
        else:  # squares: slopes 1, 2, 5 leave no permutation certificate
            c = base * (i * i + 1)
        out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# the grid, run in a child interpreter on one tree
# ---------------------------------------------------------------------------


def _kinds_views():
    from fimnar.basis import binary, categorical, continuous

    declared = {"x": continuous(), "w": continuous(), "b": binary(), "z": categorical(["1", "2"])}
    return declared, {
        "declared": declared,
        "x-binary": dict(declared, x=binary()),
        "w-undeclared": {k: v for k, v in declared.items() if k != "w"},
    }


def _cases():
    """Yield (label, outcome spec, h, kinds view, values_known, sign_beta_known)."""
    from fimnar.basis import parse_formula
    from fimnar.expfam import Component, Family, OutcomeSpec

    declared, views = _kinds_views()
    bases = {f: parse_formula(f, declared) for f in set(RESPONSE_BASES + MEAN_FORMULAS)}
    flags = tuple(itertools.product((True, False), (False, True)))

    def spec(family, formulas, pattern, dispersions, weights):
        comps = tuple(
            Component(bases[f], _coefficients(pattern, i, bases[f]), d)
            for i, (f, d) in enumerate(zip(formulas, dispersions))
        )
        return OutcomeSpec(Family(family), comps, weights=weights)

    for view, (family, dispersion), hf, mf, pattern in itertools.product(
        views, SINGLE_FAMILIES, RESPONSE_BASES, MEAN_FORMULAS, COEF_PATTERNS
    ):
        outcome = spec(family, (mf,), pattern, (dispersion,), (1.0,))
        for vk, sign in flags:
            label = (f"K=1 {family} h={hf} mean={mf} coef={pattern} kinds={view} "
                     f"values={vk} sign={sign}")
            yield label, outcome, bases[hf], views[view], vk, sign
    for k, formulas in ((2, MIXTURE_FORMULAS), (3, MIXTURE3_FORMULAS)):
        views_k = ("declared", "x-binary") if k == 2 else ("declared",)
        for view, hf, mfs, pattern, mixing in itertools.product(
            views_k, RESPONSE_BASES, itertools.product(formulas, repeat=k), COEF_PATTERNS, MIXING[k]
        ):
            dispersions, weights = MIXING[k][mixing]
            outcome = spec("normal", mfs, pattern, dispersions, weights)
            for vk, sign in flags:
                label = (f"K={k} h={hf} means={' | '.join(mfs)} coef={pattern} mixing={mixing} "
                         f"kinds={view} values={vk} sign={sign}")
                yield label, outcome, bases[hf], views[view], vk, sign


def _outcome(call) -> str:
    try:
        v = call()
    except Exception as err:  # the exception is part of the behaviour compared
        return f"raises {type(err).__name__}: {err}"
    return "\t".join((v.status.value, v.rule.value, v.certificate, *v.notes))


def emit() -> None:
    """Print one line per check: label, then the verdict or the exception."""
    from fimnar.identify import check_model, check_single

    out = sys.stdout
    for label, spec, h, kinds, vk, sign in _cases():
        verdict = _outcome(lambda: check_model(spec, h, kinds, sign, vk))
        out.write(f"{label} [check_model]\t{verdict}\n")
        if spec.k == 1 and sign is False:
            verdict = _outcome(lambda: check_single(spec, h, kinds, vk))
            out.write(f"{label} [check_single]\t{verdict}\n")


# ---------------------------------------------------------------------------
# the comparison
# ---------------------------------------------------------------------------


def _child(tree: Path, stderr):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--emit"],
        env=env, cwd=tree, stdout=subprocess.PIPE, stderr=stderr, text=True,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="checkout to compare this tree with")
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit()
        return 0
    if args.parent is None:
        parser.error("--parent is required")

    checks = cases = differences = 0
    rules, raised = Counter(), 0
    with tempfile.TemporaryFile("w+") as err_here, tempfile.TemporaryFile("w+") as err_there:
        here, there = _child(REPO, err_here), _child(args.parent.resolve(), err_there)
        for got, ref in itertools.zip_longest(here.stdout, there.stdout):
            checks += 1
            cases += (got or ref).split("\t", 1)[0].endswith("[check_model]")
            if got is None or ref is None or got != ref:
                differences += 1
                if differences <= SHOW:
                    print(f"DIFFER\n  this tree: {got!r}\n  parent:    {ref!r}")
                continue  # read on to both ends, so neither child blocks on a full pipe
            outcome = got.rstrip("\n").split("\t", 1)[1]
            if outcome.startswith("raises "):
                raised += 1
            else:
                rules[outcome.split("\t")[1]] += 1
        codes = here.wait(), there.wait()
        for code, err in zip(codes, (err_here, err_there)):
            if code:
                err.seek(0)
                print(err.read(), file=sys.stderr)
    if any(codes):
        print(f"a child interpreter failed (exit codes {codes})")
        return 1
    print(f"{cases} cases, {checks} checks, {raised} raised, {differences} differing")
    sys.path.insert(0, str(REPO / "src"))
    from fimnar.identify import Rule

    for rule in Rule:
        print(f"  {rule.value:<14} {rules[rule.value]:>8}")
    if not all(rules[rule.value] for rule in Rule):
        print("some rule never fired: the grid does not reach every rule")
        return 1
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
