"""Namespace mapping: determinism, isolation, validation."""

import pytest

from repro.gateway.namespace import (
    NamespaceError,
    NamespaceMapper,
    validate_bucket,
    validate_tenant,
)
from repro.gateway.routes import BUCKET, OBJECT, ROUTES

#: The bucket name each fixed route's path would shadow.
_ROUTE_NAMES = [row.path[1:] for row in ROUTES if row.path not in (BUCKET, OBJECT)]


class TestMapping:
    def test_deterministic(self):
        a = NamespaceMapper().internal_container("alice", "photos")
        b = NamespaceMapper().internal_container("alice", "photos")
        assert a == b

    def test_tenants_do_not_collide_on_same_bucket_name(self):
        mapper = NamespaceMapper()
        assert mapper.internal_container("alice", "photos") != mapper.internal_container(
            "bob", "photos"
        )

    def test_buckets_do_not_collide_within_tenant(self):
        mapper = NamespaceMapper()
        assert mapper.internal_container("alice", "photos") != mapper.internal_container(
            "alice", "videos"
        )

    def test_salt_separates_deployments(self):
        a = NamespaceMapper(salt="prod").internal_container("alice", "photos")
        b = NamespaceMapper(salt="staging").internal_container("alice", "photos")
        assert a != b

    def test_internal_name_keeps_readable_tail(self):
        name = NamespaceMapper().internal_container("alice", "photos")
        assert name.startswith("gw-")
        assert name.endswith("-photos")

    def test_no_collisions_across_many_pairs(self):
        mapper = NamespaceMapper()
        names = {
            mapper.internal_container(f"tenant{i}", f"bucket{j}")
            for i in range(20)
            for j in range(20)
        }
        assert len(names) == 400


class TestValidation:
    @pytest.mark.parametrize("bucket", ["photos", "my-bucket", "a1b", "x" * 63])
    def test_valid_buckets(self, bucket):
        assert validate_bucket(bucket) == bucket

    @pytest.mark.parametrize(
        "bucket",
        ["", "ab", "A-Upper", "has_underscore", "-leading", "trailing-",
         "dot..dot", "x" * 64, "spa ce"],
    )
    def test_invalid_buckets(self, bucket):
        with pytest.raises(NamespaceError):
            validate_bucket(bucket)

    @pytest.mark.parametrize("bucket", _ROUTE_NAMES)
    def test_route_names_are_reserved(self, bucket):
        with pytest.raises(NamespaceError, match="reserved"):
            validate_bucket(bucket)

    @pytest.mark.parametrize("tenant", ["alice", "Org-7", "a.b_c", "x" * 64])
    def test_valid_tenants(self, tenant):
        assert validate_tenant(tenant) == tenant

    @pytest.mark.parametrize("tenant", ["", "-x", "x" * 65, "bad tenant"])
    def test_invalid_tenants(self, tenant):
        with pytest.raises(NamespaceError):
            validate_tenant(tenant)

    def test_mapper_rejects_bad_names(self):
        mapper = NamespaceMapper()
        with pytest.raises(NamespaceError):
            mapper.internal_container("alice", "Bad_Bucket")
        with pytest.raises(NamespaceError):
            mapper.internal_container("", "photos")
