import pytest

from hamming_radio.errors import ShapeError
from hamming_radio.perms import Permutation, act, compose, identity

from .oracles import compose_images, seeded


def random_perm(n, rng):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


def test_construction_and_validation():
    p = Permutation([2, 3, 1])
    assert p.n == 3
    assert p(1) == 2 and p(2) == 3 and p(3) == 1
    with pytest.raises(ShapeError):
        Permutation([1, 1, 2])
    with pytest.raises(ShapeError):
        Permutation([0, 1, 2])
    # the bijection check builds the gather in the same pass; types come first
    for images, message in [
        ([1, 1, 2], "not a permutation of 1..3: (1, 1, 2)"),
        ([1, 2, 4], "not a permutation of 1..3: (1, 2, 4)"),
        ([5, "a"], "permutation entry 'a' is not an integer"),
    ]:
        with pytest.raises(ShapeError) as err:
            Permutation(images)
        assert str(err.value) == message
    with pytest.raises(ShapeError):
        p(0)
    with pytest.raises(ShapeError):
        p(4)


@pytest.mark.parametrize(
    "images,message",
    [
        ([1.9, 2.2], "permutation entry 1.9 is not an integer"),
        (["2", "1"], "permutation entry '2' is not an integer"),
        ([1, "x"], "permutation entry 'x' is not an integer"),
        ([True, 2], "permutation entry True is not an integer"),
    ],
)
def test_entries_must_be_exact_integers(images, message):
    with pytest.raises(ShapeError) as err:
        Permutation(images)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: compose([1, 2], [2, 1]), "[1, 2] is not a Permutation"),
        (lambda: compose(identity(2), [2, 1]), "[2, 1] is not a Permutation"),
        (lambda: act([2, 1], (1, 2)), "[2, 1] is not a Permutation"),
    ],
    ids=["compose-first", "compose-second", "act"],
)
def test_non_permutation_arguments_raise_shape_error(call, message):
    with pytest.raises(ShapeError) as err:
        call()
    assert str(err.value) == message


def test_immutability_and_equality():
    p = Permutation([2, 1])
    with pytest.raises(AttributeError):
        p.images = (1, 2)
    for name in ("images", "_gather"):
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert p.images == (2, 1) and p.gather() == (1, 0)
    assert act(p, ("a", "b")) == ("b", "a")
    assert p == Permutation([2, 1])
    assert p != identity(2)
    assert hash(p) == hash(Permutation([2, 1]))
    assert identity(4).is_identity()
    assert not p.is_identity()


def test_compose_applies_left_argument_first():
    a = Permutation([2, 1, 3])  # swaps 1 and 2
    b = Permutation([1, 3, 2])  # swaps 2 and 3
    ab = compose(a, b)
    # 1 -> 2 under a, then 2 -> 3 under b
    assert ab(1) == 3
    assert ab == Permutation([3, 1, 2])
    with pytest.raises(ShapeError):
        compose(a, identity(4))


def test_compose_matches_oracle():
    rng = seeded(5)
    for n in (3, 4, 6):
        for _ in range(100):
            a, b = random_perm(n, rng), random_perm(n, rng)
            assert compose(a, b).images == compose_images(a.images, b.images)


def test_inverse():
    rng = seeded(7)
    for _ in range(50):
        p = random_perm(5, rng)
        assert compose(p, p.inverse()).is_identity()
        assert compose(p.inverse(), p).is_identity()
        assert p.inverse().inverse() == p


def test_act_definition_and_functoriality():
    rng = seeded(9)
    for _ in range(100):
        n = rng.choice((3, 4, 5))
        sigma, tau = random_perm(n, rng), random_perm(n, rng)
        arr = tuple(rng.sample(range(10, 30), n))
        moved = act(sigma, arr)
        for p in range(1, n + 1):
            assert moved[p - 1] == arr[sigma.inverse()(p) - 1]
        # acting with compose(sigma, tau) equals acting with sigma, then tau
        assert act(compose(sigma, tau), arr) == act(tau, act(sigma, arr))
    with pytest.raises(ShapeError):
        act(identity(3), (1, 2))


def test_act_builds_each_gather_once(monkeypatch):
    """The gather is built with the permutation, so acting inverts nothing
    and builds no permutation."""
    sigma = Permutation([2, 3, 1])
    calls = []
    inverse, post_init = Permutation.inverse, Permutation.__post_init__

    def counting_inverse(self):
        calls.append(("inverse", self))
        return inverse(self)

    def counting_post_init(self):
        calls.append(("built", self))
        post_init(self)

    monkeypatch.setattr(Permutation, "inverse", counting_inverse)
    monkeypatch.setattr(Permutation, "__post_init__", counting_post_init)
    for _ in range(5):
        assert act(sigma, ("a", "b", "c")) == ("c", "a", "b")
    assert calls == []
    assert sigma.gather() is sigma.gather() == (2, 0, 1)


def test_cached_gather_keeps_permutations_immutable_and_equal():
    cached, fresh = Permutation([3, 1, 2]), Permutation([3, 1, 2])
    act(cached, (1, 2, 3))
    with pytest.raises(AttributeError):
        setattr(cached, "_gather", (0, 1, 2))
    with pytest.raises(AttributeError):
        setattr(fresh, "images", (1, 2, 3))
    assert cached.gather() == (1, 2, 0) and fresh.gather() == cached.gather()
    assert cached == fresh and fresh == cached
    assert hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh) == "Permutation([3, 1, 2])"


def test_act_brings_slot_k_to_front():
    # any permutation with sigma(k) = 1 moves the value in slot k to slot 1
    sigma = Permutation([2, 3, 1])  # sigma(3) = 1
    assert act(sigma, ("a", "b", "c"))[0] == "c"


@pytest.mark.parametrize(
    "point,message",
    [
        (1.0, "point 1.0 is not an integer"),
        (True, "point True is not an integer"),
        ("1", "point '1' is not an integer"),
    ],
)
def test_points_must_be_exact_integers(point, message):
    with pytest.raises(ShapeError) as err:
        identity(3)(point)
    assert str(err.value) == message
