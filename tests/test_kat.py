"""Known-answer vector file: parsing, recomputation, and the shipped set."""

from types import SimpleNamespace

import pytest

from letterseal import crypto_suite as cs
from letterseal import endpoint
from letterseal.kat import (
    KatVector,
    canonical_vectors,
    check_file,
    check_vectors,
    compute_output,
    parse_vectors,
)

from helpers import KAT_FILE, count_ciphers, load_reference

REF = load_reference()


def _reference_text(vectors):
    return REF.format_vectors([(v.name, v.inputs, v.output) for v in vectors])


def test_shipped_file_is_what_the_reference_writes():
    assert KAT_FILE.read_text() == REF.format_vectors(REF.build_vectors())


def test_parse_format_roundtrip_on_frozen_file():
    text = KAT_FILE.read_text()
    assert _reference_text(parse_vectors(text)) == text


def test_dash_means_empty_input():
    vecs = parse_vectors("sha256_empty - e3b0c442\n")
    assert vecs[0].inputs == (b"",)
    assert vecs[0].output == bytes.fromhex("e3b0c442")
    assert _reference_text(vecs).split()[1] == "-"


def test_comments_and_blank_lines_skipped():
    text = "# pinned outputs\n\nsha256_abc 616263 ba78\n   \n# end\n"
    vecs = parse_vectors(text)
    assert len(vecs) == 1
    assert vecs[0].name == "sha256_abc"


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1: need name"):
        parse_vectors("sha256_abc 616263\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_vectors("\n\nsha256_abc 61zz63 ba78\n")


def test_unknown_vector_name_rejected():
    with pytest.raises(ValueError, match="no computer registered"):
        compute_output("md5_legacy", (b"",))


@pytest.mark.parametrize("name", ["aes_cbc_pkcs7", "aes_ecb_fips197"])
def test_block_cipher_vectors_build_one_cbc_cipher(name, monkeypatch):
    """Both block-cipher vectors run the one CBC helper v1 seals with."""
    [vector] = [v for v in canonical_vectors() if v.name == name]
    builds = count_ciphers(monkeypatch)
    assert compute_output(name, vector.inputs) == vector.output
    assert len(builds) == 1


def test_vdr_rk0_runs_the_ratchet_responders_own_set_up(monkeypatch):
    """A responder set-up that swaps its two exchanges fails vdr_rk0, and
    only that vector."""
    def swapped(self_ltk, peer_ltk_pub, env, kid_self, kid_peer):
        ikm = (cs.dh(self_ltk, peer_ltk_pub)
               + cs.dh(self_ltk, cs.GroupElement(env.eph_pub)))
        rk, ck_recv = cs.kdf_root(ikm, cs.ZERO_SALT)
        return SimpleNamespace(rk=rk, ck_recv=ck_recv)

    monkeypatch.setattr(endpoint, "vdr_lazy_init_receiver", swapped)
    results = dict(check_vectors(canonical_vectors()))
    assert results["vdr_rk0"] is False
    assert sum(not ok for ok in results.values()) == 1


def test_canonical_vectors_match_frozen_file():
    assert canonical_vectors() == parse_vectors(KAT_FILE.read_text())
    assert [(v.name, v.inputs, v.output) for v in canonical_vectors()] == [
        (name, tuple(inputs), output)
        for name, inputs, output in REF.build_vectors()]


def test_check_file_all_green():
    results = check_file(KAT_FILE)
    assert len(results) == 12
    assert all(ok for _name, ok in results)


def test_canonical_check_catches_a_broken_primitive(monkeypatch):
    assert all(ok for _name, ok in check_vectors(canonical_vectors()))
    monkeypatch.setattr(cs, "kdf_chain",
                        lambda ck: (cs.SymmetricKey(bytes(32)), ck))
    results = dict(check_vectors(canonical_vectors()))
    assert results["hmac_chain_zero"] is False
    assert sum(not ok for ok in results.values()) == 1


def test_check_refuses_a_subset_of_the_vectors():
    with pytest.raises(ValueError, match="missing vectors: x25519_base_point"):
        check_vectors(canonical_vectors()[:3])


def test_corrupted_output_detected():
    vecs = parse_vectors(KAT_FILE.read_text())
    bad = bytearray(vecs[0].output)
    bad[0] ^= 1
    vecs[0] = KatVector(vecs[0].name, vecs[0].inputs, bytes(bad))
    results = dict(check_vectors(vecs))
    assert results[vecs[0].name] is False
    assert sum(not ok for ok in results.values()) == 1
