"""Tests for the shared Placement / ObjectMeta types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.types import ObjectMeta, Placement


class TestPlacement:
    def test_validation(self):
        with pytest.raises(ValueError):
            Placement(("A", "A"), 1)  # duplicates
        with pytest.raises(ValueError):
            Placement(("A", "B"), 0)  # m too small
        with pytest.raises(ValueError):
            Placement(("A", "B"), 3)  # m > n

    def test_derived_quantities(self):
        p = Placement(("A", "B", "C", "D"), 3)
        assert p.n == 4
        assert p.lockin == pytest.approx(0.25)
        assert p.storage_overhead == pytest.approx(4 / 3)

    def test_label_matches_paper_style(self):
        p = Placement(("S3(h)", "S3(l)"), 1)
        assert p.label() == "[S3(h), S3(l); m:1]"

    def test_equality_and_hash(self):
        a = Placement(("A", "B"), 1)
        b = Placement(("A", "B"), 1)
        assert a == b and hash(a) == hash(b)
        assert a != Placement(("A", "B"), 2)

    @given(
        st.lists(
            st.text(min_size=1, max_size=4, alphabet="ABCDEFGH"),
            min_size=1,
            max_size=6,
            unique=True,
        ).flatmap(
            lambda names: st.tuples(
                st.just(tuple(names)), st.integers(1, len(names))
            )
        )
    )
    def test_invariants_property(self, pair):
        names, m = pair
        p = Placement(names, m)
        assert 0 < p.lockin <= 1
        assert p.storage_overhead >= 1


def sample_meta() -> ObjectMeta:
    return ObjectMeta(
        container="pics",
        key="cat.gif",
        size=342_000,
        mime="image/gif",
        rule_name="rule 3",
        class_key="abc123",
        skey="a3e229084",
        m=3,
        chunk_map=((0, "S3(h)"), (1, "S3(l)"), (2, "Azu"), (3, "RS")),
        created_at=12.5,
        checksum="ce944a11a4",
        ttl_hint=72.0,
    )


class TestObjectMeta:
    def test_figure11_fields(self):
        meta = sample_meta()
        assert meta.n == 4
        assert meta.placement == Placement(("Azu", "RS", "S3(h)", "S3(l)"), 3)
        assert meta.chunk_key(2) == "a3e229084:2"

    def test_dict_roundtrip(self):
        meta = sample_meta()
        assert ObjectMeta.from_dict(meta.to_dict()) == meta

    def test_roundtrip_without_optionals(self):
        meta = ObjectMeta(
            container="c", key="k", size=1, mime="m", rule_name="r",
            class_key="cls", skey="s", m=1, chunk_map=((0, "P"),), created_at=0.0,
        )
        restored = ObjectMeta.from_dict(meta.to_dict())
        assert restored.ttl_hint is None
        assert restored.checksum == ""
