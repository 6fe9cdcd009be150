import inspect
import itertools
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symgraph.words
from symgraph.boundary import BoundaryRay
from symgraph.words import (
    GraphParams,
    ReducedWord,
    _children,
    _product,
    _syllable_distance,
    _walk,
    _walk_counts,
    _walk_distances,
    ball,
    ball_size,
    distance,
    neighbors,
    parse_word,
    sphere,
)

P34 = GraphParams(3, 4)


def word_strategy(params, max_len=4):
    syllable = st.tuples(
        st.integers(min_value=0, max_value=params.r - 1),
        st.integers(min_value=1, max_value=params.k - 1),
    )
    def build(pairs):
        w = params.identity()
        for g, e in pairs:
            w = w * params.generator(g, e)
        return w
    return st.lists(syllable, max_size=max_len).map(build)


def test_params_validation():
    with pytest.raises(ValueError):
        GraphParams(1, 3)
    assert GraphParams(3, 4).q == 6
    assert GraphParams(3, 4).sigma == 1


def test_cancellation_to_identity():
    for k, r in [(2, 3), (3, 4), (4, 2)]:
        p = GraphParams(k, r)
        a = p.generator(0, 1)
        b = p.generator(0, k - 1)
        assert len(a * b) == 0


def test_merge_within_factor():
    w = P34.generator(0) * P34.generator(1)
    assert (w * P34.generator(1)).syllables == ((0, 1), (1, 2))


def test_cascade_reduction():
    # a0 a1 * a1^2 a0 : the a1 block cancels, then the a0 blocks merge
    left = P34.generator(0) * P34.generator(1)
    right = P34.generator(1, 2) * P34.generator(0)
    assert (left * right).syllables == ((0, 2),)


def test_inverse_examples():
    assert (~P34.identity()).syllables == ()
    assert (~P34.generator(0)).syllables == ((0, 2),)
    w = P34.generator(0) * P34.generator(1, 2)
    assert (~w).syllables == ((1, 1), (0, 2))


def test_distance_examples():
    x = P34.generator(0) * P34.generator(1)
    assert distance(x, x) == 0
    assert distance(P34.identity(), x) == 2


def test_distance_compares_graphs_not_param_objects():
    x = P34.generator(0) * P34.generator(1)
    twin = GraphParams(3, 4)
    assert twin is not P34
    assert distance(twin.generator(0), x) == 1
    for other in (GraphParams(4, 3), GraphParams(3, 5)):
        with pytest.raises(ValueError, match="different graphs"):
            distance(other.generator(0), x)
        with pytest.raises(ValueError, match="different graphs"):
            distance(x, other.identity())


def test_sphere_counts_by_enumeration():
    assert [len(list(sphere(P34, n))) for n in range(3)] == [1, 8, 48]
    assert P34.delta(1) == 8 and P34.delta(2) == 48
    p23 = GraphParams(2, 3)
    words = list(sphere(p23, 2))
    assert len(words) == 6 == p23.delta(2)
    assert all(len(w) == 2 for w in words)


def test_sphere_counts_grid():
    for k, r in itertools.product((2, 3, 4), repeat=2):
        p = GraphParams(k, r)
        for n in range(5):
            words = list(sphere(p, n))
            assert len(words) == p.delta(n)
            assert len(set(words)) == len(words)


def test_sphere_order_deterministic():
    first = [w.syllables for w in sphere(P34, 2)]
    second = [w.syllables for w in sphere(P34, 2)]
    assert first == second == sorted(first)


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(2, 2), GraphParams(3, 4),
                                    GraphParams(3, 2), GraphParams(4, 3), GraphParams(5, 2)])
def test_ball_contract(params):
    # the sizes are the closed-form delta, the neighbours are group products
    spheres = []
    for n in range(5):
        words = list(sphere(params, n))
        tuples = [w.syllables for w in words]
        assert len(words) == params.delta(n)
        assert all(a < b for a, b in zip(tuples, tuples[1:]))
        spheres.append(words)
        joined = [w for level in spheres for w in level]
        assert list(ball(params, n)) == joined
        assert ball_size(params, n) == len(joined)
    steps = list(sphere(params, 1))
    for x in ball(params, 4):
        near = neighbors(x)
        assert len(near) == params.degree
        assert set(near) == {x * s for s in steps}
    # a cap bounds the work at any radius, and a capped size still passes the cap
    assert ball_size(GraphParams(2, 2), 10**9, 10**6) > 10**6
    assert ball_size(params, 10**9, 10**6) > 10**6
    assert ball_size(params, -1) == 0


def test_word_parsing():
    assert parse_word(P34, "e") == P34.identity()
    w = parse_word(P34, "a0^1.a1^2")
    assert w.syllables == ((0, 1), (1, 2))
    assert parse_word(P34, str(w)) == w
    with pytest.raises(ValueError):
        parse_word(P34, "a9^1")
    with pytest.raises(ValueError):
        ReducedWord(P34, ((0, 1), (0, 1)))


@given(word_strategy(P34), word_strategy(P34), word_strategy(P34))
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(word_strategy(P34))
def test_inverse_cancels(x):
    assert len(x * ~x) == 0
    assert len(~x * x) == 0


@given(word_strategy(P34), word_strategy(P34))
def test_distance_matches_quotient_length(x, y):
    assert distance(x, y) == len(~x * y)
    assert distance(x, y) == distance(y, x)
    assert distance(P34.identity(), x) == len(x)


@pytest.mark.parametrize("k, r", [(2, 3), (3, 4), (4, 3), (4, 4)])
def test_syllable_distance_is_the_distance_of_the_words(k, r):
    # the enumeration oracles measure syllable tuples; every pair of ball(2)
    params = GraphParams(k, r)
    pool = list(ball(params, 2))
    for x in pool:
        for y in pool:
            d = _syllable_distance(x.syllables, y.syllables)
            assert d == distance(x, y) == len(~x * y), (x, y)


@given(word_strategy(P34), word_strategy(P34), word_strategy(P34))
def test_left_invariance_and_triangle(g, x, y):
    assert distance(g * x, g * y) == distance(x, y)
    assert distance(x, y) <= distance(x, g) + distance(g, y)


def test_triangle_exhaustive_small():
    p = GraphParams(2, 3)
    words = list(ball(p, 2))
    for x in words:
        for y in words:
            for z in words:
                assert distance(x, z) <= distance(x, y) + distance(y, z)


def test_associativity_exhaustive_small():
    for k, r in ((2, 2), (2, 3), (3, 2)):
        p = GraphParams(k, r)
        words = list(ball(p, 3))
        for x in words:
            for y in words:
                for z in words:
                    assert (x * y) * z == x * (y * z)


def reference_reduce(syllables, k):
    """Full reduction of a syllable list, one syllable at a time: the
    definition the junction-only product must agree with."""
    out = []
    for g, e in syllables:
        e %= k
        if not e:
            continue
        if out and out[-1][0] == g:
            e = (out.pop()[1] + e) % k
            if e:
                out.append((g, e))
        else:
            out.append((g, e))
    return tuple(out)


@st.composite
def graph_and_words(draw):
    """A graph with k in 2..5 and r in 2..4, and three reduced words on it.
    Each later word starts with the inverse of a suffix of the one before,
    with its first exponent sometimes shifted, so products cancel and merge
    deep into the junction."""
    k, r = draw(st.integers(2, 5)), draw(st.integers(2, 4))
    params = GraphParams(k, r)
    syllables = st.lists(st.tuples(st.integers(0, r - 1), st.integers(1, k - 1)), max_size=7)
    words = [ReducedWord(params, reference_reduce(draw(syllables), k))]
    for _ in range(2):
        before = words[-1].syllables
        cut = draw(st.integers(0, len(before)))
        head = [(g, k - e) for g, e in reversed(before[cut:])]
        if head:
            head[-1] = (head[-1][0], head[-1][1] + draw(st.integers(0, k - 1)))
        words.append(ReducedWord(params, reference_reduce(head + draw(syllables), k)))
    return params, words


@given(graph_and_words())
def test_product_is_the_reduced_concatenation(case):
    params, (x, y, z) = case
    for a, b in ((x, y), (y, z), (x, z), (y, x)):
        product = a * b
        expected = reference_reduce(a.syllables + b.syllables, params.k)
        assert _product(a.syllables, b.syllables, params.k) == expected
        assert product.syllables == expected
        assert product == ReducedWord(params, product.syllables)
    assert (x * y) * z == x * (y * z)
    assert x * ~x == params.identity() == ~x * x
    twin = GraphParams(params.k, params.r)
    assert twin is not params
    assert ReducedWord(twin, x.syllables) * y == x * y
    assert ReducedWord(twin, x.syllables) == x
    for other in (GraphParams(params.k + 1, params.r), GraphParams(params.k, params.r + 1)):
        with pytest.raises(ValueError, match="different graph"):
            x * other.identity()
        with pytest.raises(ValueError, match="different graph"):
            other.identity() * y


@pytest.mark.parametrize("k, r", [(2, 3), (3, 3), (4, 2), (3, 4)])
def test_walks_follow_the_children_rule(k, r):
    # every child appends a_g^e for each generator g but the last, in order,
    # and the words that sphere and ball build in place are whole words
    params = GraphParams(k, r)
    for x in ball(params, 2):
        last = x.syllables[-1][0] if x.syllables else -1
        assert _children(params, x.syllables) == [
            x.syllables + ((g, e),) for g in range(r) if g != last for e in range(1, k)]
    walked = list(ball(params, 3))
    assert walked == [w for n in range(4) for w in sphere(params, n)]
    for x in itertools.chain(walked, sphere(params, 3)):
        twin = ReducedWord(params, x.syllables)
        assert x.params is params and x == twin and hash(x) == hash(twin)
    assert [x.syllables for x in sphere(params, 3)] == [
        c for x in sphere(params, 2) for c in _children(params, x.syllables)]


def test_tracer_hooks_stay_in_place():
    # the bench tracer counts vertices only through generator functions and
    # counts products by patching __mul__ on the class
    assert inspect.isgeneratorfunction(symgraph.words.ball)
    assert inspect.isgeneratorfunction(symgraph.words.sphere)
    assert "__mul__" in ReducedWord.__dict__


# -- the array walk of the enumeration oracles ------------------------------------


def _coded(params, words, width):
    # rows of syllable codes g*k + e, then 0 to ``width``
    return np.array([[g * params.k + e for g, e in w.syllables] + [0] * (width - len(w))
                     for w in words]).reshape(-1, width)


@pytest.mark.parametrize("k, r", list(itertools.product(range(2, 6), repeat=2)))
def test_walk_rows_are_the_words_of_ball_and_sphere(k, r):
    # row for row in ball() order, for the whole ball and for one sphere
    params = GraphParams(k, r)
    for radius in range(5):
        assert ball_size(params, radius) < 10 ** 5
        walk = _walk(params, radius)
        assert walk.codes.dtype == np.int8 and walk.codes.flags.c_contiguous
        assert np.array_equal(walk.codes, _coded(params, ball(params, radius), radius + 1))
        assert walk.lengths.tolist() == [len(w) for w in ball(params, radius)]
        starts = [ball_size(params, n - 1) for n in range(radius + 2)]
        assert walk.spheres == [(n, starts[n], starts[n + 1]) for n in range(radius + 1)]
        alone = _walk(params, radius, radius)
        assert np.array_equal(alone.codes, _coded(params, sphere(params, radius), radius + 1))
        assert alone.spheres == [(radius, 0, params.delta(radius))]
    with pytest.raises(ValueError, match="inner <= radius"):
        _walk(params, 2, 3)


def _centres(params):
    # e, words shorter and longer than those of ball(3), ray prefixes and parents
    rng = random.Random(params.k * 10 + params.r)
    rays = [BoundaryRay.alternating(params, 4)] + [
        BoundaryRay.random(params, depth, rng) for depth in (1, 2, 3, 5, 8)]
    return ([params.identity(), params.generator(params.r - 1, params.k - 1)]
            + [ray.prefix for ray in rays] + [ray.parent for ray in rays])


@pytest.mark.parametrize("k, r", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 3), (5, 2)])
def test_walk_distances_are_syllable_distances(k, r):
    params = GraphParams(k, r)
    words = list(ball(params, 3))
    walk = _walk(params, 3)
    for centre in _centres(params):
        want = [_syllable_distance(centre.syllables, y.syllables) for y in words]
        assert _walk_distances(walk, centre.syllables).tolist() == want, centre


@pytest.mark.parametrize("k, r", [(2, 70), (70, 2)])
def test_walk_widens_its_codes_past_int8(k, r):
    # codes up to r*k - 1 > 127 need int16; a wrapped code would misplace words
    params = GraphParams(k, r)
    walk = _walk(params, 2)
    assert walk.codes.dtype == np.int16
    assert np.array_equal(walk.codes, _coded(params, ball(params, 2), 3))
    words = list(ball(params, 2))
    for centre in (words[-1], words[len(words) // 2] * params.generator(0, k - 1)):
        want = [_syllable_distance(centre.syllables, y.syllables) for y in words]
        assert _walk_distances(walk, centre.syllables).tolist() == want


@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 2), st.data())
def test_walk_distances_on_random_reduced_words(k, r, radius, data):
    params = GraphParams(k, r)
    inner = data.draw(st.integers(0, radius))
    centre = data.draw(word_strategy(params, max_len=7))
    walk = _walk(params, radius, inner)
    words = [w for n in range(inner, radius + 1) for w in sphere(params, n)]
    got = _walk_distances(walk, centre.syllables)
    assert got.tolist() == [_syllable_distance(centre.syllables, y.syllables) for y in words]
    counts = _walk_counts(walk, got)
    for n, row in zip(range(inner, radius + 1), counts):
        assert row == [sum(1 for y in sphere(params, n) if distance(centre, y) == d)
                       for d in range(len(row))]


def test_walk_counts_of_a_deep_sphere():
    # one sphere far from the centre: counts per distance, as ints, past
    # every narrow type of the codes
    params = GraphParams(2, 3)
    centre = params.generator(0) * params.generator(1) * params.generator(2)
    walk = _walk(params, 10, 10)
    (counts,) = _walk_counts(walk, _walk_distances(walk, centre.syllables))
    want = [0] * 14
    for y in sphere(params, 10):
        want[distance(centre, y)] += 1
    assert counts == want and all(type(c) is int for c in counts)
