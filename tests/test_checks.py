"""Every ``verify`` check must be able to fail: perturb one compared path and
the suite has to name the failure, drop the pass and carry a witness."""

import dataclasses
import random

import pytest

import symgraph.checks as checks
import symgraph.transforms as transforms
from symgraph.checks import run_suite
from symgraph.spectral import QuadResult
from symgraph.words import GraphParams

P34 = GraphParams(3, 4)


def plus_one(fn):
    return lambda *args, **kwargs: fn(*args, **kwargs) + 1


def first_value_plus_one(fn):
    def bumped(*args, **kwargs):
        seq = fn(*args, **kwargs)
        return dataclasses.replace(seq, values=(seq.values[0] + 1, *seq.values[1:]))
    return bumped


def each_first_value_plus_one(fn):
    def bumped(*args, **kwargs):
        return [dataclasses.replace(seq, values=(seq.values[0] + 1, *seq.values[1:]))
                for seq in fn(*args, **kwargs)]
    return bumped


def first_word_dropped(fn):
    return lambda params, n: list(fn(params, n))[1:]


def last_word_repeats_first(fn):
    def repeated(params, n):
        words = list(fn(params, n))
        return words[:-1] + words[:1]
    return repeated


def untranslated(fn):
    return lambda x, ray: ray


def first_entry_plus_one(fn):
    def bumped(*args, **kwargs):
        row = fn(*args, **kwargs)
        return [row[0] + 1, *row[1:]]
    return bumped


def mass_plus_one(fn):
    def heavier(*args, **kwargs):
        result = fn(*args, **kwargs)
        return QuadResult(result.value + 1.0, result.error)
    return heavier


class _Lopsided:
    """A wave field whose past is off by one."""

    def __init__(self, field):
        self.field = field

    def at(self, x, n):
        return self.field.at(x, n) + (1 if n < 0 else 0)


def past_off_when_still(fn):
    # only the zero-velocity solve of the time-symmetry check is perturbed
    def stepped(params, data, steps, observe_radius=None):
        field = fn(params, data, steps, observe_radius=observe_radius)
        return field if data.velocity.data else _Lopsided(field)
    return stepped


CASES = [
    ("group", "sphere", first_word_dropped, "sphere-count", "sphere-count"),
    ("group", "sphere", last_word_repeats_first, "sphere-distinct", "sphere-count"),
    ("group", "distance", plus_one, "inverse-distance", "word-algebra"),
    ("boundary", "_sphere_horocycle_row", first_entry_plus_one, "horocycle-count",
     "horocycle-count"),
    ("boundary", "translate_ray", untranslated, "cocycle", "cocycle"),
    ("abel", "_abel_via_radon_rays", each_first_value_plus_one, "abel-oracle",
     "abel-forward-inverse"),
    ("abel", "abel_inv", first_value_plus_one, "abel-roundtrip", "abel-forward-inverse"),
    ("abel", "abel_inv_rearranged", first_value_plus_one, "abel-inv-variants",
     "abel-forward-inverse"),
    ("dual", "dual_abel_via_counts", first_value_plus_one, "dual-closed-vs-counts", "dual-abel"),
    ("dual", "dual_abel", first_value_plus_one, "dual-closed-vs-counts", "dual-abel"),
    ("dual", "abel", first_value_plus_one, "dual-pairing", "dual-abel"),
    ("dual", "dual_abel_inv", first_value_plus_one, "dual-roundtrip", "dual-abel"),
    ("dual", "dual_abel_inv_recurrence", first_value_plus_one, "dual-inv-variants", "dual-abel"),
    ("spectral", "fourier_z", plus_one, "factorization", "factorization"),
    ("spectral", "phi_oracle", plus_one, "phi-oracle", "phi-oracle"),
    ("spectral", "plancherel_norm", mass_plus_one, "plancherel-mass", "plancherel-mass"),
    ("wave", "wave_closed_at", plus_one, "wave-closed-vs-direct", "wave-closed-vs-direct"),
    ("wave", "wave_direct", past_off_when_still, "wave-time-symmetry", "wave-time-symmetry"),
    ("boundary", "_walk_distances", plus_one, "horocycle-count", "horocycle-count"),
]


def _case_ids(cases):
    # suite-failure, with the perturbed path added when an earlier case has that id
    ids = []
    for suite, path, _, failure, _ in cases:
        name = f"{suite}-{failure}"
        ids.append(f"{name}-{path}" if name in ids else name)
    return ids


@pytest.mark.parametrize("suite, path, perturb, failure, success", CASES, ids=_case_ids(CASES))
def test_every_check_can_fail(monkeypatch, suite, path, perturb, failure, success):
    assert run_suite(suite, [P34], 0)[0]
    monkeypatch.setattr(checks, path, perturb(getattr(checks, path)))
    ok, collected = run_suite(suite, [P34], 0)
    results = [result for _, _, result in collected]
    assert not ok
    assert not any(result.ok and result.name == success for result in results)
    failed = [result for result in results if not result.ok]
    assert [result.name for result in failed] == [failure]
    assert failed[0].witness and all(isinstance(v, str) for v in failed[0].witness.values())


def test_horocycle_failure_skips_the_cocycle_check(monkeypatch):
    monkeypatch.setattr(checks, "_sphere_horocycle_row",
                        first_entry_plus_one(checks._sphere_horocycle_row))
    _, collected = run_suite("boundary", [P34], 0)
    assert [(result.name, result.ok) for _, _, result in collected] == [
        ("horocycle-count", False)]


def test_abel_oracle_counts_the_second_ray(monkeypatch):
    # both fixture rays of a trial share one walk of the ball; counts that
    # are off on the second ray alone must still fail, with that ray as witness
    seconds = []
    fixture_rays = checks._fixture_rays
    exact = transforms._sphere_counts

    def rays(*args):
        found = fixture_rays(*args)
        seconds.append(found[1].prefix)
        return found

    def counts(f, walked):
        return [[[c + 1 for c in row] for row in spheres] if ray.prefix == seconds[-1]
                else spheres for ray, spheres in zip(walked, exact(f, walked))]

    monkeypatch.setattr(checks, "_fixture_rays", rays)
    monkeypatch.setattr(transforms, "_sphere_counts", counts)
    ok, collected = run_suite("abel", [P34], 0)
    results = [result for _, _, result in collected]
    assert not ok
    assert [(result.name, result.ok) for result in results] == [("abel-oracle", False)]
    assert results[0].witness["trial"] == "0" and results[0].witness["ray"] == str(seconds[0])


def _off_at(centres):
    # the walk's distances, one more from the given centres
    exact = checks._walk_distances
    return lambda walk, centre: exact(walk, centre) + (centre in centres)


def test_horocycle_check_counts_the_second_ray(monkeypatch):
    # both fixture rays share one walk of the ball; distances that are off
    # on the second ray alone (its prefix and parent alike, so the depth
    # check holds) must still fail, with that ray as witness
    first, second = checks._fixture_rays(P34, 5, random.Random(0))
    assert first.prefix != second.prefix
    monkeypatch.setattr(checks, "_walk_distances",
                        _off_at([second.prefix.syllables, second.parent.syllables]))
    ok, collected = run_suite("boundary", [P34], 0)
    results = [result for _, _, result in collected]
    assert not ok
    assert [(result.name, result.ok) for result in results] == [("horocycle-count", False)]
    assert results[0].witness["ray"] == str(second.prefix)


@pytest.mark.parametrize("which", [0, 1])
def test_horocycle_check_raises_on_a_parent_distance_that_disagrees(monkeypatch, which):
    # busemann's depth-stability check, kept in the tally: a parent distance
    # one off raises before any count is compared, as busemann raises
    ray = checks._fixture_rays(P34, 5, random.Random(0))[which]
    monkeypatch.setattr(checks, "_walk_distances", _off_at([ray.parent.syllables]))
    with pytest.raises(AssertionError, match="^busemann depth instability$"):
        run_suite("boundary", [P34], 0)
