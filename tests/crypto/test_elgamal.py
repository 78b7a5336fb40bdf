"""ElGamal encryption, re-encryption, homomorphism and threshold decryption."""

import pytest

from repro.crypto.chaum_pedersen import verify_decryption_share
from repro.crypto.elgamal import ElGamal
from repro.errors import VerificationError


class TestBasicEncryption:
    def test_encrypt_decrypt_roundtrip(self, group, elgamal):
        keys = elgamal.keygen()
        message = group.power(777)
        assert elgamal.decrypt(keys.secret, elgamal.encrypt(keys.public, message)) == message

    def test_encryption_is_randomized(self, group, elgamal):
        keys = elgamal.keygen()
        message = group.power(5)
        assert elgamal.encrypt(keys.public, message) != elgamal.encrypt(keys.public, message)

    def test_fixed_randomness_is_deterministic(self, group, elgamal):
        keys = elgamal.keygen()
        message = group.power(5)
        assert elgamal.encrypt(keys.public, message, 42) == elgamal.encrypt(keys.public, message, 42)

    def test_wrong_key_does_not_decrypt(self, group, elgamal):
        keys = elgamal.keygen()
        other = elgamal.keygen()
        message = group.power(9)
        assert elgamal.decrypt(other.secret, elgamal.encrypt(keys.public, message)) != message

    def test_integer_encoding_roundtrip(self, elgamal):
        keys = elgamal.keygen()
        ciphertext = elgamal.encrypt_int(keys.public, 37)
        assert elgamal.decrypt_int(keys.secret, ciphertext, max_value=100) == 37

    def test_keygen_with_explicit_secret(self, group, elgamal):
        keys = elgamal.keygen(secret=1234)
        assert keys.public == group.power(1234)


class TestReencryption:
    def test_reencryption_preserves_plaintext(self, group, elgamal):
        keys = elgamal.keygen()
        message = group.power(11)
        ciphertext = elgamal.encrypt(keys.public, message)
        refreshed = elgamal.reencrypt(keys.public, ciphertext)
        assert refreshed != ciphertext
        assert elgamal.decrypt(keys.secret, refreshed) == message

    def test_reencryption_composes_additively(self, group, elgamal):
        keys = elgamal.keygen()
        message = group.power(3)
        ciphertext = elgamal.encrypt(keys.public, message, 10)
        double = elgamal.reencrypt(keys.public, ciphertext, 20)
        assert double == elgamal.encrypt(keys.public, message, 30)

    def test_zero_reencryption_of_trivial_encryption(self, group, elgamal):
        keys = elgamal.keygen()
        message = group.power(4)
        trivial = elgamal.encrypt(keys.public, message, randomness=0)
        assert trivial.c1 == group.identity
        assert trivial.c2 == message


class TestHomomorphism:
    def test_multiplication_of_ciphertexts(self, group, elgamal):
        keys = elgamal.keygen()
        a = elgamal.encrypt(keys.public, group.power(6))
        b = elgamal.encrypt(keys.public, group.power(7))
        assert elgamal.decrypt(keys.secret, a.multiply(b)) == group.power(13)

    def test_exponentiation_of_ciphertext(self, group, elgamal):
        keys = elgamal.keygen()
        ciphertext = elgamal.encrypt(keys.public, group.power(2))
        assert elgamal.decrypt(keys.secret, ciphertext.exponentiate(5)) == group.power(10)

    def test_encrypt_identity_is_multiplicative_unit(self, group, elgamal):
        keys = elgamal.keygen()
        message = group.power(8)
        ciphertext = elgamal.encrypt(keys.public, message)
        zero = elgamal.encrypt_identity(keys.public)
        assert elgamal.decrypt(keys.secret, ciphertext.multiply(zero)) == message


class TestDecryptionShares:
    def test_share_verifies(self, group, elgamal):
        keys = elgamal.keygen()
        ciphertext = elgamal.encrypt(keys.public, group.power(3))
        share = elgamal.decryption_shares([keys.secret], ciphertext)[0]
        assert verify_decryption_share(keys.public, ciphertext, share)

    def test_share_with_wrong_secret_fails_verification(self, group, elgamal):
        keys = elgamal.keygen()
        other = elgamal.keygen()
        ciphertext = elgamal.encrypt(keys.public, group.power(3))
        bogus = elgamal.decryption_shares([other.secret], ciphertext)[0]
        assert not verify_decryption_share(keys.public, ciphertext, bogus)

    def test_combine_requires_valid_shares(self, group, elgamal, dkg):
        message = group.power(21)
        ciphertext = elgamal.encrypt(dkg.public_key, message)
        shares = dkg.decryption_shares(ciphertext)
        publics = [member.public for member in dkg.members]
        assert elgamal.combine_decryption_shares(ciphertext, publics, shares) == message
        # Corrupt one share: verification must reject it.
        with pytest.raises(VerificationError):
            elgamal.combine_decryption_shares(ciphertext, publics, [shares[1]] + shares[1:], verify=True)

    def test_combine_share_count_mismatch(self, group, elgamal, dkg):
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(1))
        shares = dkg.decryption_shares(ciphertext)
        with pytest.raises(ValueError):
            elgamal.combine_decryption_shares(ciphertext, [dkg.members[0].public], shares)


class TestCiphertextValueSemantics:
    def test_equality_and_hash(self, group, elgamal):
        keys = elgamal.keygen()
        a = elgamal.encrypt(keys.public, group.power(2), 5)
        b = elgamal.encrypt(keys.public, group.power(2), 5)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_to_bytes_changes_with_content(self, group, elgamal):
        keys = elgamal.keygen()
        a = elgamal.encrypt(keys.public, group.power(2), 5)
        b = elgamal.encrypt(keys.public, group.power(3), 5)
        assert a.to_bytes() != b.to_bytes()
