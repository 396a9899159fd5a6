import itertools
from dataclasses import replace

import pytest

from pkisn.certs import (
    ALLOWED_REVOCATIONS,
    CertChain,
    InvalidChain,
    PolicyViolation,
    RevocationKind,
    SignerRole,
    TimestampAfterExpiry,
    canonical_tbs_bytes,
    decode_certificate,
    decode_revocation,
    make_certificate,
    make_revocation,
    pre_validate,
    verify_revocation,
)
from pkisn.crypto import KeyPair, KeyRole
from pkisn.validation import Cause, LegitimacyPeriod, determine_lp_ca, determine_lp_leaf
from pkisn.wire import DecodeError

from helpers import DAY, T0, YEAR, ChainFixture, ca_keys, make_ca, make_leaf, make_root

# Golden canonical encoding of a fixed certificate, frozen after the first
# correct encode (seed keys make the fixture reproducible).
GOLDEN_FIXED_CERT_HASH = "cac7c707bb012e002a857fd54c56e947f357eb7d4bc1a6322cdce3cb7c3ebcb8"


def fixed_cert():
    issuer = KeyPair(role=KeyRole.STANDARD_CA, seed=bytes(range(32)))
    subject = KeyPair(role=KeyRole.STANDARD_LEAF, seed=bytes(range(1, 33)))
    return make_certificate(
        serial=7,
        subject_name="golden.example",
        subject_public_key=subject.public_bytes,
        is_ca=False,
        not_before=1_000_000,
        not_after=2_000_000,
        issuer_key=issuer,
    )


def test_golden_cert_hash_frozen():
    assert fixed_cert().cert_hash.hex == GOLDEN_FIXED_CERT_HASH


def test_encode_decode_round_trip():
    fx = ChainFixture()
    for cert in fx.chain.certs:
        raw = cert.canonical_bytes
        back = decode_certificate(raw)
        assert back == cert
        assert back.canonical_bytes == raw


def test_serial_changes_hash():
    key, rk = ca_keys()
    a = make_root("Same CA", key, rk, serial=1)
    b = make_root("Same CA", key, rk, serial=2)
    assert a.cert_hash != b.cert_hash


def test_chain_structure_valid():
    fx = ChainFixture()
    fx.chain.verify_structure()


def test_chain_rejects_wrong_order():
    fx = ChainFixture()
    with pytest.raises(InvalidChain):
        CertChain((fx.inter, fx.root, fx.leaf)).verify_structure()


def test_chain_rejects_non_ca_root():
    key = KeyPair.generate(KeyRole.STANDARD_LEAF)
    cert = make_leaf("self.example", key, issuer_key=key)
    with pytest.raises(InvalidChain):
        CertChain((cert,)).verify_structure(require_leaf=False)


def test_chain_ca_prefix_allowed_without_leaf():
    fx = ChainFixture()
    CertChain((fx.root, fx.inter)).verify_structure(require_leaf=False)
    with pytest.raises(InvalidChain):
        CertChain((fx.root, fx.inter)).verify_structure(require_leaf=True)


def test_revocation_round_trip():
    fx = ChainFixture()
    rev = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY
    )
    assert decode_revocation(rev.canonical_bytes) == rev


def test_owner_revokes_own_leaf():
    fx = ChainFixture()
    rev = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, fx.leaf_key, SignerRole.OWN_KEY
    )
    assert rev.kind == RevocationKind.LEAF_REVOKE
    assert verify_revocation(rev, fx.leaf, fx.chain, b"\x00" * 32)


def test_ca_revokes_itself_with_revocation_key():
    fx = ChainFixture()
    cutoff = T0 + YEAR
    rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM,
        fx.root,
        fx.root_rk,
        SignerRole.REVOCATION_KEY,
        rev_timestamp=cutoff,
    )
    assert rev.rev_timestamp == cutoff
    assert verify_revocation(rev, fx.root, fx.chain, b"\x00" * 32)


def test_leaf_revoke_with_revocation_key_rejected():
    fx = ChainFixture()
    with pytest.raises(PolicyViolation):
        make_revocation(
            RevocationKind.LEAF_REVOKE, fx.leaf, fx.inter_rk, SignerRole.REVOCATION_KEY
        )


def test_ca_revoke_timestamp_after_expiry_rejected():
    fx = ChainFixture()
    with pytest.raises(TimestampAfterExpiry):
        make_revocation(
            RevocationKind.CA_REVOKE_FROM,
            fx.root,
            fx.root_rk,
            SignerRole.REVOCATION_KEY,
            rev_timestamp=fx.root.not_after + 1,
        )


def test_vendor_can_revoke_anything():
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    leaf_rev = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, vendor, SignerRole.VENDOR
    )
    ca_rev = make_revocation(
        RevocationKind.CA_REVOKE_FROM,
        fx.inter,
        vendor,
        SignerRole.VENDOR,
        rev_timestamp=T0 + YEAR,
    )
    assert verify_revocation(leaf_rev, fx.leaf, fx.chain, vendor.public_bytes)
    assert verify_revocation(ca_rev, fx.inter, fx.chain, vendor.public_bytes)
    # Without the vendor key the same messages fail.
    other = KeyPair.generate(KeyRole.VENDOR)
    assert not verify_revocation(leaf_rev, fx.leaf, fx.chain, other.public_bytes)


def test_root_ca_revokes_leaf_directly():
    fx = ChainFixture()
    rev = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, fx.root_key, SignerRole.PARENT_CA, signer_depth=0
    )
    assert verify_revocation(rev, fx.leaf, fx.chain, b"\x00" * 32)


def test_foreign_key_revocation_rejected():
    fx = ChainFixture()
    stranger = KeyPair.generate(KeyRole.STANDARD_CA)
    rev = make_revocation(
        RevocationKind.LEAF_REVOKE, fx.leaf, stranger, SignerRole.PARENT_CA, signer_depth=0
    )
    assert not verify_revocation(rev, fx.leaf, fx.chain, b"\x00" * 32)


def test_policy_matrix_exhaustive():
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    keys = {
        SignerRole.OWN_KEY: fx.leaf_key,
        SignerRole.PARENT_CA: fx.root_key,
        SignerRole.REVOCATION_KEY: fx.inter_rk,
        SignerRole.VENDOR: vendor,
    }
    for kind, role in itertools.product(RevocationKind, SignerRole):
        target = fx.leaf if kind == RevocationKind.LEAF_REVOKE else fx.inter
        ts = None if kind == RevocationKind.LEAF_REVOKE else T0 + YEAR
        key = keys[role]
        if role == SignerRole.OWN_KEY and kind == RevocationKind.CA_REVOKE_FROM:
            key = fx.inter_key
        allowed = (kind, role) in ALLOWED_REVOCATIONS
        if allowed:
            rev = make_revocation(kind, target, key, role, rev_timestamp=ts)
            assert verify_revocation(rev, target, fx.chain, vendor.public_bytes), (kind, role)
        else:
            with pytest.raises(PolicyViolation):
                make_revocation(kind, target, key, role, rev_timestamp=ts)


def test_pre_validate_happy_path():
    fx = ChainFixture()
    roots = {fx.root.cert_hash}
    assert pre_validate(fx.chain, "example.com", roots, T0 + YEAR)
    assert pre_validate(fx.chain, "EXAMPLE.COM", roots, T0 + YEAR)


def test_pre_validate_name_mismatch():
    fx = ChainFixture()
    assert not pre_validate(fx.chain, "other.com", {fx.root.cert_hash}, T0 + YEAR)


def test_pre_validate_untrusted_root():
    fx = ChainFixture()
    other = ChainFixture()
    assert not pre_validate(fx.chain, "example.com", {other.root.cert_hash}, T0 + YEAR)


def test_pre_validate_expired_leaf():
    fx = ChainFixture()
    roots = {fx.root.cert_hash}
    assert not pre_validate(fx.chain, "example.com", roots, fx.leaf.not_after + 1)
    assert not pre_validate(fx.chain, "example.com", roots, T0 - 1)


def test_non_ca_mid_chain_rejected_with_or_without_leaf_requirement():
    fx = ChainFixture()
    below = make_leaf("below.example", KeyPair.generate(KeyRole.STANDARD_LEAF), fx.leaf_key, serial=9)
    chain = CertChain((fx.root, fx.inter, fx.leaf, below))
    for require_leaf in (True, False):
        with pytest.raises(InvalidChain):
            chain.verify_structure(require_leaf=require_leaf)


REVOCATION_MUTATIONS = ["none", "another-target", "cut-off-at-expiry", "altered-key-id", "foreign-signature"]


@pytest.mark.parametrize("mutation", REVOCATION_MUTATIONS)
@pytest.mark.parametrize(
    "kind,role", sorted(ALLOWED_REVOCATIONS), ids=lambda v: v.name.lower()
)
def test_log_admits_exactly_what_the_validator_applies(kind, role, mutation):
    # The log and the full monitor admit a revocation through
    # verify_revocation; the validator must give exactly those force.
    fx = ChainFixture()
    vendor = KeyPair.generate(KeyRole.VENDOR)
    is_ca = kind == RevocationKind.CA_REVOKE_FROM
    target = fx.inter if is_ca else fx.leaf
    keys = {
        SignerRole.OWN_KEY: fx.leaf_key,
        SignerRole.PARENT_CA: fx.root_key if is_ca else fx.inter_key,
        SignerRole.REVOCATION_KEY: fx.inter_rk,
        SignerRole.VENDOR: vendor,
    }
    rev = make_revocation(kind, target, keys[role], role, rev_timestamp=T0 + YEAR if is_ca else None)
    chain = fx.chain
    if mutation == "another-target":
        if is_ca:
            target = make_ca("Sibling CA", *ca_keys(), issuer_key=fx.root_key, serial=7)
            chain = CertChain((fx.root, target))
        else:
            sibling_key = KeyPair.generate(KeyRole.STANDARD_LEAF)
            target = make_leaf("sibling.example", sibling_key, fx.inter_key, serial=8)
            chain = CertChain((fx.root, fx.inter, target))
    elif mutation == "cut-off-at-expiry":
        rev = replace(rev, rev_timestamp=target.not_after)
    elif mutation == "altered-key-id":
        rev = replace(rev, signer_key_id=KeyPair.generate(KeyRole.STANDARD_CA).key_id)
    elif mutation == "foreign-signature":
        stranger = KeyPair.generate(keys[role].role)
        rev = replace(rev, signature=stranger.sign(rev.tag, rev.signed_payload()))

    accepted = verify_revocation(rev, target, chain, vendor.public_bytes)
    depth = chain.certs.index(target)
    open_lp = LegitimacyPeriod(T0, T0 + 100 * YEAR, Cause.UNREVOKED)
    determine_lp = determine_lp_ca if is_ca else determine_lp_leaf
    lp = determine_lp(
        target, T0, [(rev, T0 + DAY)], list(chain.certs[:depth]), [open_lp] * depth, vendor.public_bytes
    )
    assert accepted == (lp.cause != Cause.UNREVOKED)
    if mutation in ("none", "another-target", "cut-off-at-expiry", "foreign-signature"):
        assert accepted == (mutation == "none")


def test_decoding_keeps_the_bytes_it_read(monkeypatch):
    import pkisn.certs

    fx = ChainFixture()
    rev = make_revocation(RevocationKind.CA_REVOKE_FROM, fx.inter, fx.root_key, SignerRole.PARENT_CA,
                          rev_timestamp=T0 + YEAR)
    raws = [c.canonical_bytes for c in fx.chain.certs]
    rev_raw = rev.canonical_bytes

    def no_reencoding(cert):
        raise AssertionError("canonical input was re-encoded")

    monkeypatch.setattr(pkisn.certs, "canonical_tbs_bytes", no_reencoding)
    for raw, cert in zip(raws, fx.chain.certs):
        back = decode_certificate(raw)
        assert back.canonical_bytes is raw
        assert back.tbs_bytes == raw[: len(raw) - len(cert.issuer_signature.encode())]
        assert back.cert_hash == cert.cert_hash
    back = decode_revocation(rev_raw)
    assert back.canonical_bytes is rev_raw
    assert back.rev_hash == rev.rev_hash


def test_decoded_certificate_keeps_only_its_canonical_bytes():
    fx = ChainFixture()
    for cert in fx.chain.certs:
        back = decode_certificate(cert.canonical_bytes)
        assert "tbs_bytes" not in back.__dict__
        assert back.tbs_bytes == canonical_tbs_bytes(cert)
        assert "tbs_bytes" not in back.__dict__


def test_subject_name_that_is_not_utf8_is_a_decode_error():
    raw = bytearray(ChainFixture().leaf.canonical_bytes)
    raw[12] = 0xFF  # the first byte of the subject name, after the serial and its length
    with pytest.raises(DecodeError):
        decode_certificate(bytes(raw))
