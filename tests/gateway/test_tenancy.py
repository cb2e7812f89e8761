"""Unit tests for tenant profiles, token buckets and the tenant book."""

import pytest

from repro.errors import ValidationError
from repro.gateway.tenancy import (
    DEFAULT_TENANTS,
    PASSTHROUGH_TENANT,
    TenantBook,
    TenantProfile,
    TokenBucket,
)


class TestTenantProfile:
    def test_defaults_are_unlimited(self):
        p = TenantProfile(name="t")
        assert p.quota_rps is None
        assert p.bucket_capacity is None
        assert p.priority_boost == 0
        assert p.deadline_scale == 1.0

    def test_derived_burst(self):
        p = TenantProfile(name="t", quota_rps=10_000.0)
        assert p.bucket_capacity == 50.0  # 5 ms of sustained rate
        assert TenantProfile(name="t", quota_rps=10.0).bucket_capacity == 1.0
        assert (
            TenantProfile(name="t", quota_rps=100.0, burst=7.0).bucket_capacity
            == 7.0
        )

    def test_validation(self):
        with pytest.raises(ValidationError):
            TenantProfile(name="")
        with pytest.raises(ValidationError):
            TenantProfile(name="t", quota_rps=0.0)
        with pytest.raises(ValidationError):
            TenantProfile(name="t", burst=-1.0)
        with pytest.raises(ValidationError):
            TenantProfile(name="t", priority_boost=-1)
        with pytest.raises(ValidationError):
            TenantProfile(name="t", deadline_scale=0.0)
        with pytest.raises(ValidationError):
            TenantProfile(name="t", share=0.0)


class TestTokenBucket:
    def test_starts_full_then_enforces_rate(self):
        b = TokenBucket(rate=10.0, capacity=2.0)
        assert b.try_take(0.0)
        assert b.try_take(0.0)
        assert not b.try_take(0.0)  # burst spent
        assert b.try_take(0.1)  # one token refilled
        assert not b.try_take(0.1)

    def test_refill_caps_at_capacity(self):
        b = TokenBucket(rate=10.0, capacity=3.0)
        for _ in range(3):
            assert b.try_take(0.0)
        admitted = sum(b.try_take(100.0) for _ in range(10))
        assert admitted == 3  # a long quiet spell refills to burst, no more

    def test_sustained_rate(self):
        """Over a long window admissions track rate * time + burst."""
        b = TokenBucket(rate=100.0, capacity=5.0)
        admitted = sum(b.try_take(i * 1e-3) for i in range(1000))
        assert admitted == pytest.approx(100.0 * 1.0 + 5.0, abs=2)

    def test_validation(self):
        with pytest.raises(ValidationError):
            TokenBucket(0.0, 1.0)
        with pytest.raises(ValidationError):
            TokenBucket(1.0, 0.0)


class TestTenantBook:
    def test_unknown_tenant_rejected(self):
        book = TenantBook(DEFAULT_TENANTS)
        with pytest.raises(ValidationError):
            book.profile("nobody")

    def test_none_maps_to_first_profile(self):
        book = TenantBook(DEFAULT_TENANTS)
        assert book.profile(None) is DEFAULT_TENANTS[0]

    def test_admit_charges_only_quota_tenants(self):
        book = TenantBook(DEFAULT_TENANTS)
        gold = book.profile("gold")
        for _ in range(1000):
            assert book.admit(gold, 0.0)  # unlimited
        bronze = book.profile("bronze")
        cap = bronze.bucket_capacity
        admitted = sum(book.admit(bronze, 0.0) for _ in range(int(cap) + 10))
        assert admitted == int(cap)

    def test_passthrough_never_sheds(self):
        book = TenantBook((PASSTHROUGH_TENANT,))
        assert all(book.admit(book.profile(None), 0.0) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ValidationError):
            TenantBook(())
        with pytest.raises(ValidationError):
            TenantBook((PASSTHROUGH_TENANT, PASSTHROUGH_TENANT))
