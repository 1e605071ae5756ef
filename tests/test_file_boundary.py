"""Property tests of the two file readers, load_instance and load_summary,
on arbitrary JSON: each returns what the program can use, or refuses the
file with its own error. Nothing else escapes."""

import json
from dataclasses import asdict

from hypothesis import given, settings, strategies as st

from qtsp.errors import InvalidInstanceError
from qtsp.harness import SweepSummary, TrialResult, load_summary, report_convergence
from qtsp.instance import Instance, load_instance

# integers past the float range, either sign, as well as the usual ones
integers = st.one_of(st.integers(), st.integers(min_value=2**1024), st.integers(max_value=-2**1024))
leaves = st.one_of(st.none(), st.booleans(), integers, st.floats(), st.text(max_size=4))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


@st.composite
def instance_payloads(draw):
    """Instance-shaped dicts: n_cities and an n x n dist, symmetric with a
    zero diagonal or not, whose entries are numbers or any JSON leaf."""
    n = draw(st.integers(0, 4))
    entry = st.one_of(st.integers(0, 9), st.floats(0, 9), leaves)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = draw(st.sampled_from([0, 0.0, -0.0, False]))
            for j in range(i):
                rows[i][j] = rows[j][i]
    payload = {"n_cities": draw(st.one_of(st.just(n), json_values)), "dist": rows}
    return draw(st.one_of(st.just(payload), json_values.map(lambda v: {**payload, "dist": v})))


def _summary_payload() -> dict:
    trial = TrialResult(hyperparams={"n_chains": 8}, seed=3, best_energy=6.0, time_to_target_s=0.5,
                        reason="target-reached", n_steps=10, wall_s=0.6)
    return asdict(SweepSummary(n_cities=4, representation="qudit", trials=[trial]))


@st.composite
def summary_payloads(draw):
    """A sweep summary with up to two values of its trial and two of its
    own, the trials list included, replaced by arbitrary JSON; or any JSON."""
    payload = _summary_payload()
    values = st.one_of(integers, leaves, json_values)  # a number most often, as the fields hold
    trial = payload["trials"][0]
    trial.update(draw(st.dictionaries(st.sampled_from(sorted(trial)), values, max_size=2)))
    payload.update(draw(st.dictionaries(st.sampled_from(sorted(payload)), values, max_size=2)))
    return draw(st.one_of(st.just(payload), json_values))


def _write(tmp_path_factory, payload) -> str:
    path = tmp_path_factory.getbasetemp() / "boundary.json"  # one file, rewritten per example
    path.write_text(json.dumps(payload))  # NaN and Infinity included, as a hand-written file may
    return str(path)


def _is_number(value) -> bool:
    return type(value) in (int, float)


@settings(max_examples=300, deadline=None)
@given(payload=st.one_of(instance_payloads(), json_values))
def test_load_instance_returns_an_instance_of_numbers_or_refuses(tmp_path_factory, payload):
    path = _write(tmp_path_factory, payload)
    try:
        instance = load_instance(path)
    except InvalidInstanceError as exc:
        assert path in str(exc)
        return
    assert isinstance(instance, Instance)
    assert all(_is_number(d) for row in payload["dist"] for d in row)


@settings(max_examples=300, deadline=None)
@given(payload=summary_payloads())
def test_load_summary_returns_what_the_report_formats_or_refuses(tmp_path_factory, payload):
    path = _write(tmp_path_factory, payload)
    try:
        summary = load_summary(path)
    except ValueError as exc:
        assert path in str(exc)
        return
    assert report_convergence([summary]).startswith("n_cities,")


def test_the_unchanged_payloads_load(tmp_path):
    """The properties above are not vacuous: the payloads they start from load."""
    summary, instance = tmp_path / "s.json", tmp_path / "i.json"
    summary.write_text(json.dumps(_summary_payload()))
    instance.write_text(json.dumps({"n_cities": 2, "dist": [[0, 1.5], [1.5, 0]]}))
    assert report_convergence([load_summary(summary)]).splitlines()[1] == "4,qudit,1,100.0,0.500000"
    assert load_instance(instance).dist.tolist() == [[0.0, 1.5], [1.5, 0.0]]
