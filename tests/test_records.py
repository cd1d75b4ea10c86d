"""The record contract: every record is immutable, re-validates on
``_replace``, pickles to an equal object, and the DSL nodes are equal
only to nodes of their own type."""

import pickle
import weakref

import pytest

from qek import inequalities
from qek.cli import CampaignConfig, derive_case, run_campaign
from qek.ekoperator import OperatorParams, OperatorResult, ek_series
from qek.functions import (
    BoundsTriple,
    Const,
    FunctionSpec,
    LipschitzTriple,
    Power,
    generate_family,
    parse_function_spec,
    pieces,
)
from qek.inequalities import InequalityReport
from qek.qcore import (
    DeformationParam,
    SeriesResult,
    TruncationPolicy,
    log_q_product,
    q_gamma,
)

# one spec holding each of the seven node types
NODES = parse_function_spec(
    "(sum (product (power 2) (affine 0.5 1))"
    " (scale 2 (sum (const 1) (piecewise_linear (0 0) (1 2) (2 2.5)))))")


def _nodes(expr):
    yield expr
    for child in expr:
        if isinstance(child, FunctionSpec):
            yield from _nodes(child)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(CampaignConfig(theorems=("T1", "T3"), cases=2,
                                       seed=5))


@pytest.fixture(scope="module")
def records(campaign):
    """One instance of every record type, keyed by its type name."""
    report = campaign.reports[0][1]
    bounded = generate_family("bounded_triple", 3, 1.0)
    out = {
        "DeformationParam": DeformationParam(0.5),
        "TruncationPolicy": TruncationPolicy(1e-12, 500),
        "SeriesResult": q_gamma(1.5, 0.5),
        "LogQProduct": log_q_product(0.75, 0.5),
        "OperatorParams": OperatorParams(0.5, 1.5, 2.0),
        "OperatorResult": ek_series(Const(1.0), 1.0,
                                    OperatorParams(0.0, 1.0), 0.5),
        "Piece": pieces(NODES, 1.5)[0],
        "BoundsTriple": bounded.bounds,
        "LipschitzTriple": generate_family("lipschitz_triple", 3,
                                           1.0).lipschitz,
        "FunctionFamily": bounded,
        "TheoremCase": report.case,
        "_Theorem": inequalities._THEOREMS["T3"],
        "CampaignConfig": campaign.config,
        "CampaignResult": campaign,
        "InequalityReport": report,
    }
    out.update((type(node).__name__, node) for node in _nodes(NODES))
    assert len(out) == 22
    for name, rec in out.items():
        assert type(rec).__name__ == name
    return out


def test_every_field_is_frozen(records):
    for name, rec in records.items():
        for field in (*rec._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)
            with pytest.raises(AttributeError):
                delattr(rec, field)
        # the value records keep no instance dict; a node keeps only what
        # it derives, and a report only its weak-reference slot
        if name in ("InequalityReport", *(type(n).__name__
                                          for n in _nodes(NODES))):
            continue
        assert not hasattr(rec, "__dict__"), name


@pytest.mark.parametrize("build,change,match", [
    (lambda: OperatorParams(0.0, 1.0), {"mu": -1.0}, "mu must be positive"),
    (lambda: TruncationPolicy(), {"max_terms": 3}, "max_terms must exceed 3"),
    (lambda: derive_case(CampaignConfig(theorems=("T3",)), "T3", 0),
     {"reversed": True}, "no reversed form"),
    (lambda: DeformationParam(0.5), {"q": 1.0}, "q must lie in"),
    (lambda: BoundsTriple(0.0, 1.0, 0.0, 1.0, 0.0, 1.0), {"Psi": -1.0},
     "lower bound"),
    (lambda: LipschitzTriple(1.0, 1.0, 1.0), {"L3": -1.0}, "nonnegative"),
    (lambda: CampaignConfig(), {"rel_tol": 0.0}, "rel_tol must be"),
    (lambda: CampaignConfig(), {"cases": 0}, "case count"),
    (lambda: Power(1.0), {"exponent": -1.0}, "exponent must be"),
    (lambda: parse_function_spec("(piecewise_linear (0 0) (1 1))"),
     {"knots": ((0.0, 0.0),)}, "at least two knots"),
], ids=["OperatorParams", "TruncationPolicy", "TheoremCase",
        "DeformationParam", "BoundsTriple", "LipschitzTriple",
        "CampaignConfig-policy", "CampaignConfig", "Power",
        "PiecewiseLinear"])
def test_replace_validates(build, change, match):
    rec = build()
    with pytest.raises(ValueError, match=match):
        rec._replace(**change)
    same = rec._replace()
    assert type(same) is type(rec) and same == rec


def test_replace_coerces_as_the_constructor_does():
    q = DeformationParam(0.5)._replace(q="0.25")
    assert type(q) is DeformationParam and type(q.q) is float and q.q == 0.25
    knots = parse_function_spec("(piecewise_linear (0 0) (1 1))")._replace(
        knots=[(0, 1), (2, 3)])
    assert knots.knots == ((0.0, 1.0), (2.0, 3.0))


def test_pickle_round_trip_is_equal(records):
    for name, rec in records.items():
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec), name
        if name == "CampaignResult":  # its tally has no equality
            assert back[:2] == rec[:2]
            assert ([back.tally.summary_line(t) for t in ("T1", "T3")]
                    == [rec.tally.summary_line(t) for t in ("T1", "T3")])
            continue
        if isinstance(rec, FunctionSpec):  # what a node derives stays out
            assert vars(rec) and not vars(back), name
        assert back == rec, name
        if name != "Piece":  # its poly is a dict
            assert hash(back) == hash(rec), name


def test_pickled_config_builds_its_policy():
    config = CampaignConfig(rel_tol=1e-10, max_terms=500)
    back = pickle.loads(pickle.dumps(config))
    assert back.policy == TruncationPolicy(1e-10, 500) == config.policy
    assert type(back.policy) is TruncationPolicy
    assert "policy" not in config._fields and "policy" not in repr(config)


def test_nodes_equal_only_nodes_of_their_type():
    assert Const(1.0) == Const(1.0) and not Const(1.0) != Const(1.0)
    assert Const(1.0) != Power(1.0) and not Const(1.0) == Power(1.0)
    assert hash(Const(1.0)) == hash(Power(1.0)) == hash((1.0,))
    for left, right in ((Const(1.0), (1.0,)), ((1.0,), Const(1.0))):
        assert left != right and not left == right
    assert len({Const(1.0), Power(1.0), (1.0,)}) == 3


def test_records_are_tuples_and_reports_are_not(records):
    result = records["OperatorResult"]
    assert not isinstance(result, SeriesResult)
    assert OperatorResult(1.0, 2, 0.0, True).min_term == 0.0
    assert tuple(result) == tuple(getattr(result, name)
                                  for name in result._fields)
    report = records["InequalityReport"]
    assert not isinstance(report, tuple)
    assert weakref.ref(report)() is report
    assert report._replace(verdict="x").verdict == "x"
    assert report._replace(verdict="x").case is report.case
    assert report._replace() == report
    with pytest.raises(TypeError):
        report._replace(nonsense=1)
