import json

import pytest
from hypothesis import given, strategies as st

from rflcs.model import (
    Instance,
    PlantedCertificate,
    is_repetition_free,
    is_subsequence,
    validate_matching,
)


def make_inst(x, y, k):
    return Instance(n=len(x), k=k, x=tuple(x), y=tuple(y))


def is_common(z, x, y):
    return is_subsequence(z, x) and is_subsequence(z, y)


class TestSubsequencePredicates:
    def test_empty_is_common(self):
        assert is_common([], [0, 1], [1, 0])

    def test_direct_embedding(self):
        assert is_common([0, 1], [0, 1, 0], [1, 0, 1])

    def test_not_subsequence_of_x(self):
        assert not is_common([0, 0], [0, 1], [0, 0])

    def test_repetition_free(self):
        assert is_repetition_free([])
        assert is_repetition_free([2, 0, 1])
        assert not is_repetition_free([1, 2, 1])


class TestValidateMatching:
    def test_empty_matching(self):
        inst = make_inst([0, 1], [1, 0], 2)
        assert validate_matching((), inst)

    def test_crossing_pair_rejected(self):
        inst = make_inst([0, 1], [1, 0], 2)
        assert not validate_matching(((0, 1), (1, 0)), inst)

    def test_repeated_symbol_rejected(self):
        inst = make_inst([5, 1, 5], [5, 1, 5], 6)
        edges = ((0, 0), (2, 2))
        assert validate_matching(edges, inst, require_repetition_free=False)
        assert not validate_matching(edges, inst, require_repetition_free=True)

    def test_wrong_symbol_rejected(self):
        # x[0] = 0 joined to y[0] = 1
        inst = make_inst([0, 1], [1, 0], 2)
        assert not validate_matching(((0, 0),), inst)

    @pytest.mark.parametrize("edge", [(2, 0), (0, 2), (-1, 1), (1, -1)])
    def test_edge_outside_range_rejected(self, edge):
        # x[-1] = 1 = y[1] and x[1] = 1 = y[-1]: negative indices would match
        inst = make_inst([0, 1], [1, 1], 2)
        assert not validate_matching((edge,), inst)


class TestInstanceInvariants:
    def test_empty_sequences_legal(self):
        inst = Instance(n=0, k=1, x=(), y=())
        assert inst.n == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Instance(n=2, k=2, x=(0,), y=(0, 1))

    def test_symbol_out_of_range(self):
        with pytest.raises(ValueError):
            Instance(n=1, k=2, x=(2,), y=(0,))

    def test_negative_symbol_rejected(self):
        with pytest.raises(ValueError):
            Instance(n=2, k=2, x=(0, 1), y=(1, -1))

    def test_planted_repetition_rejected(self):
        with pytest.raises(ValueError):
            PlantedCertificate(z=(1, 1), positions_x=(0, 1), positions_y=(0, 1))

    # x = (2, 1, 0, 1) and y = (1, 2, 2, 0) hold z = (2, 0) at x positions
    # (0, 2) and y positions (1, 3); each certificate below moves one edge
    @pytest.mark.parametrize(
        "positions_x, positions_y",
        [
            ((0, 4), (1, 3)),  # a position >= n
            ((0, 2), (-3, 3)),  # y[-3] = 2 only by wrapping from the end
            ((1, 2), (1, 3)),  # x[1] = 1 is not z[0] = 2
            ((0, 2), (0, 3)),  # y[0] = 1 is not z[0] = 2
        ],
        ids=["position-past-n", "negative-position", "wrong-x-symbol", "wrong-y-symbol"],
    )
    def test_certificate_must_match_sequences(self, positions_x, positions_y):
        cert = PlantedCertificate(z=(2, 0), positions_x=positions_x, positions_y=positions_y)
        with pytest.raises(ValueError, match="does not match x and y"):
            Instance(n=4, k=3, x=(2, 1, 0, 1), y=(1, 2, 2, 0), planted=cert)


class TestSerialization:
    def test_round_trip(self):
        cert = PlantedCertificate(z=(2, 0), positions_x=(0, 2), positions_y=(1, 3))
        inst = Instance(n=4, k=3, x=(2, 1, 0, 1), y=(1, 2, 2, 0), seed=99, planted=cert)
        assert inst.planted is not None
        again = Instance.from_json(inst.to_json())
        assert again == inst

    def test_field_order(self):
        inst = Instance(n=1, k=1, x=(0,), y=(0,), seed=7)
        assert list(json.loads(inst.to_json())) == ["n", "k", "seed", "x", "y", "planted"]


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), max_size=6),
            st.lists(st.integers(0, k - 1), max_size=6),
            st.lists(st.integers(0, k - 1), max_size=6),
        )
    )
)
def test_common_subsequence_matches_bruteforce(args):
    k, z, x, y = args

    def is_sub(a, b):
        j = 0
        for c in b:
            if j < len(a) and a[j] == c:
                j += 1
        return j == len(a)

    assert is_common(z, x, y) == (is_sub(z, x) and is_sub(z, y))
