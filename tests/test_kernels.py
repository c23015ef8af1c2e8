"""The shared kernels: cartesian fill-ins, functor comparison, inverse functors, pair names."""

from grothkit import build
from grothkit.fincat import first_disagreement, identity_functor, inverse_functor, pair_mor_id
from grothkit.opfib import _fill_ins

from test_messages import inversion3, swap2, two_fill_in_functor


class TestFillIns:
    def test_none(self):
        assert _fill_ins(two_fill_in_functor(), "m", "id_b", "id_u") == []

    def test_one(self):
        assert _fill_ins(two_fill_in_functor(), "m", "id_b", "m") == ["id_v"]

    def test_two_in_listing_order(self):
        assert _fill_ins(two_fill_in_functor(), "m", "id_b", "e") == ["n1", "n2"]

    def test_respects_over(self):
        assert _fill_ins(two_fill_in_functor(), "m", "f", "e") == []


class TestFirstDisagreement:
    def test_equal_functors(self):
        bz3, inv = inversion3()
        assert first_disagreement(inv, inv) is None
        assert first_disagreement(identity_functor(bz3), identity_functor(bz3)) is None

    def test_object_before_morphism(self):
        d2, swap = swap2()
        assert first_disagreement(swap, identity_functor(d2)) == ("object", "x0")

    def test_morphism_in_listing_order(self):
        bz3, inv = inversion3()
        assert first_disagreement(inv, identity_functor(bz3)) == ("morphism", "r1")


class TestInverseFunctor:
    def test_inverts_an_isomorphism(self):
        bz3, inv = inversion3()
        back = inverse_functor(inv, "back")
        assert back.name == "back" and back.dom is bz3 and back.cod is bz3
        assert dict(back.mor_map) == {"id_*": "id_*", "r2": "r1", "r1": "r2"}


class TestPairMorId:
    def test_identity_pair_is_named_after_its_object(self):
        wa, ch = build.walking_arrow(), build.chain(2)
        assert pair_mor_id(wa, ch, "id_a", "id_1") == "id_(a,1)"
        assert pair_mor_id(wa, ch, "f", "id_1") == "(f,id_1)"
        assert pair_mor_id(wa, ch, "id_b", "le(0,1)") == "(id_b,le(0,1))"
