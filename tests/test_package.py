import importlib
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shiryaev_qsd as sq
from shiryaev_qsd.errors import DomainError


def _home(name):
    # the module that defines a public name: its lazy module, or the
    # package itself for the names it imports eagerly
    lazy = sq._LAZY.get(name)
    return importlib.import_module(f"shiryaev_qsd.{lazy}") if lazy else sq


@pytest.mark.parametrize("name", sq.__all__)
def test_public_names_resolve(name, monkeypatch):
    if name in sq._LAZY:
        monkeypatch.delitem(vars(sq), name, raising=False)
    assert getattr(sq, name) is getattr(_home(name), name)
    assert name in dir(sq)


def test_star_import_binds_every_public_name():
    ns = {}
    exec("from shiryaev_qsd import *", ns)
    assert {n: ns[n] for n in sq.__all__} == {n: getattr(sq, n) for n in sq.__all__}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sq.no_such_name
    assert not hasattr(sq, "run_check")
    assert "no_such_name" not in dir(sq)


def test_lazy_name_is_cached_after_first_access(monkeypatch):
    # a cached name is a plain attribute read: a second access must not
    # enter __getattr__, which would cost microseconds per density call
    for name in sq._LAZY:
        monkeypatch.delitem(vars(sq), name, raising=False)
        first = getattr(sq, name)
        assert vars(sq)[name] is first
    entered = []
    monkeypatch.setattr(sq, "__getattr__", lambda name: entered.append(name))
    assert all(getattr(sq, name) is vars(sq)[name] for name in sq._LAZY)
    assert entered == []


# the domain contract: each argument of a public entry that is a number
# (errors.real_number's rule) or a system (spectral._check_sys), as
# (public name, argument, call with that argument set to v and the others
# valid at es, the system solved at A = 20). eigen_checks' C is a solve
# output, which its rows judge: a C that float() reads but finds infinite or
# nan fails them, and any other malformed C raises DomainError
_ARGUMENTS = [
    ("EigenSystem", "A", lambda es, v: sq.EigenSystem(v, es.lam, es.C, es.residual)),
    ("EigenSystem", "lam", lambda es, v: sq.EigenSystem(es.A, v, es.C, es.residual, False)),
    ("assemble_system", "A", lambda es, v: sq.assemble_system(v, es.lam)),
    ("assemble_system", "lam", lambda es, v: sq.assemble_system(es.A, v, False)),
    ("eigen_checks", "A", lambda es, v: sq.eigen_checks(v, es.lam, es.C)),
    ("eigen_checks", "lam", lambda es, v: sq.eigen_checks(es.A, v, es.C)),
    ("eigen_checks", "C", lambda es, v: sq.eigen_checks(es.A, es.lam, v)),
    ("eigencondition", "A", lambda es, v: sq.eigencondition(v, es.lam)),
    ("eigencondition", "lam", lambda es, v: sq.eigencondition(es.A, v)),
    ("lambda_bounds", "A", lambda es, v: sq.lambda_bounds(v)),
    ("solve_lambda", "A", lambda es, v: sq.solve_lambda(v)),
    ("xi_of_lambda", "lam", lambda es, v: sq.xi_of_lambda(v)),
    ("one_minus_xi", "lam", lambda es, v: sq.one_minus_xi(v)),
    ("qsd_pdf", "x", lambda es, v: sq.qsd_pdf(v, es)),
    ("qsd_pdf", "sys", lambda es, v: sq.qsd_pdf(3.0, v)),
    ("qsd_cdf", "x", lambda es, v: sq.qsd_cdf(v, es)),
    ("qsd_cdf", "sys", lambda es, v: sq.qsd_cdf(-1.0, v)),
    ("stationary_pdf", "x", lambda es, v: sq.stationary_pdf(v)),
    ("stationary_cdf", "x", lambda es, v: sq.stationary_cdf(v)),
    ("moment_frac", "s", lambda es, v: sq.moment_frac(v, es)),
    ("moment_frac", "sys", lambda es, v: sq.moment_frac(0.5, v)),
    ("moment_integer", "n", lambda es, v: sq.moment_integer(v, es)),
    ("moment_integer", "sys", lambda es, v: sq.moment_integer(2, v)),
    ("moment_log", "sys", lambda es, v: sq.moment_log(v)),
    ("moment_recurrence_residual", "s", lambda es, v: sq.moment_recurrence_residual(v, es)),
    ("moment_recurrence_residual", "sys", lambda es, v: sq.moment_recurrence_residual(0.5, v)),
    ("moment_singular_base", "sys", lambda es, v: sq.moment_singular_base(v, 1)),
    ("moment_singular_base", "sigma", lambda es, v: sq.moment_singular_base(es, v)),
    ("moment_singular_shifted", "sys", lambda es, v: sq.moment_singular_shifted(v, 1, 2)),
    ("moment_singular_shifted", "sigma", lambda es, v: sq.moment_singular_shifted(es, v, 2)),
    ("moment_singular_shifted", "k", lambda es, v: sq.moment_singular_shifted(es, 1, v)),
    ("moment_special_value", "sys", lambda es, v: sq.moment_special_value(v, 1)),
    ("moment_special_value", "sigma", lambda es, v: sq.moment_special_value(es, v)),
    ("limit_moment", "s", lambda es, v: sq.limit_moment(v)),
    ("quad_moments", "sys", lambda es, v: sq.quad_moments(v, (0.5,))),
    ("quad_moments", "orders", lambda es, v: sq.quad_moments(es, (0.5, v))),
    ("quad_moments", "log", lambda es, v: sq.quad_moments(es, (), v)),
    ("quad_moment", "s", lambda es, v: sq.quad_moment(v, es)),
    ("quad_moment", "sys", lambda es, v: sq.quad_moment(0.5, v)),
    ("quad_log_moment", "sys", lambda es, v: sq.quad_log_moment(v)),
    ("normalization_check", "sys", lambda es, v: sq.normalization_check(v)),
    ("run_checks", "sys", lambda es, v: sq.run_checks(v)),
]

# the arguments that are one number each (sigma is a sign, +1 or -1)
_NUMBERS = {"A", "lam", "C", "x", "s", "n", "k"}

# public names that take neither: the exception classes and the records a
# result is reported in (their values are outputs, not inputs)
_NO_DOMAIN = {
    "CheckRow", "ConsistencyError", "ConvergenceError", "DenominatorPoleError",
    "DomainError", "EvalReport", "MomentResult", "PoleError", "RegimeError",
    "ResultRow", "ToleranceNotMetError",
}


def _not_a_float(text):
    try:
        float(text)
    except ValueError:
        return True
    return False


# what float() refuses or turns non-finite: each is neither a number of the
# contract nor a system
_MALFORMED = st.one_of(
    st.sampled_from([
        None, "x", "", "0.5.", "nan", "-inf", 1j, complex(3.0, 0.0), [0.05], (20.0,), {},
        2**1100, -(2**1100), Fraction(2**1100), Decimal("nan"), math.nan, math.inf,
        -math.inf,
    ]),
    st.text(max_size=6).filter(_not_a_float),
    st.integers(min_value=2**1024, max_value=2**1100).map(lambda n: n if n % 2 else -n),
)


def test_every_public_name_is_classified():
    # a new public entry must state its arguments here
    assert {name for name, _, _ in _ARGUMENTS} | _NO_DOMAIN == set(sq.__all__)


def _float_or_none(v):
    try:
        return float(v)
    except (TypeError, ValueError, OverflowError):
        return None


@pytest.mark.parametrize(
    "arg, call", [(a, c) for _, a, c in _ARGUMENTS], ids=[f"{n}-{a}" for n, a, _ in _ARGUMENTS]
)
@settings(max_examples=25, derandomize=True, deadline=None)
@given(bad=_MALFORMED)
@example(bad=None)
@example(bad="x")
@example(bad=[0.05])
@example(bad=2**1100)
def test_malformed_arguments_raise_domain_error(arg, call, bad, solved):
    # DomainError and nothing else: no TypeError, ValueError, OverflowError
    # or AttributeError escapes the entry. The examples each escaped some
    # entry before the contract had one rule: eigencondition(20, [0.05]) a
    # TypeError, qsd_pdf(3, None) and run_checks(None) an AttributeError,
    # solve_lambda("x") a ValueError, moment_singular_shifted(es, 1, 2**1100)
    # an OverflowError, eigen_checks(20, lam, "x") and quad_moments(es, (),
    # log="x") a TypeError. A normalizer that float() reads as inf or nan
    # fails eigen_checks' C rows instead
    if arg == "C" and _float_or_none(bad) is not None:
        rows = {r.name: r for r in call(solved(20.0), bad)}
        assert not rows["normalizer-positive"].passed
        assert not rows["normalizer-series"].passed
        return
    with pytest.raises(DomainError):
        call(solved(20.0), bad)


@pytest.mark.parametrize("orders", [None, 0.5, 3, object()])
def test_quad_moments_orders_must_be_iterable(orders, solved):
    # quad_moments(es, None) raised TypeError when it unpacked the orders
    with pytest.raises(DomainError, match="orders must be an iterable"):
        sq.quad_moments(solved(20.0), orders)


@pytest.mark.parametrize(
    "call", [c for _, a, c in _ARGUMENTS if a in _NUMBERS],
    ids=[f"{n}-{a}" for n, a, _ in _ARGUMENTS if a in _NUMBERS],
)
def test_numeric_strings_are_numbers(call, solved):
    # float() takes a numeric string, and so does every number argument: the
    # entry answers, or raises, as it does for the float (assemble_system(20,
    # "0.05", validate=False) raised TypeError before the contract had one rule)
    es = solved(20.0)

    def outcome(v):
        try:
            return call(es, v)
        except Exception as exc:  # the exception's class is compared
            return type(exc)

    for text in ("20", "0.5", "3", "2", "0.05", "-1"):
        assert outcome(text) == outcome(float(text)), text

