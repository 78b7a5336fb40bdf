"""The Votegral tallying pipeline (§4.2, Appendix M).

After the voting deadline the tally service:

1. validates every ballot on the ledger (signature, key proof,
   well-formedness) and removes per-credential duplicates;
2. encrypts each ballot's credential key and verifiably mixes the
   (vote, credential) ciphertext pairs, and in parallel verifiably mixes the
   registration ledger's public credential tags;
3. applies the distributed deterministic tagging exponent to both sides and
   threshold-decrypts only the tags, so each ballot and each registration
   record reduce to a blinded tag;
4. keeps exactly the ballots whose blinded tag matches a blinded registration
   tag (one per voter — the real votes) and discards the rest (the fakes);
5. threshold-decrypts the surviving vote ciphertexts and publishes the
   result, together with every shuffle, tagging and decryption proof so
   anyone can re-verify the tally from the ledger alone.
"""

from repro.tally.mixnet import TupleShuffle, shuffle_tuples_with_proof, tuple_mix_cascade
from repro.tally.filter import FilterResult, filter_ballots, deduplicate_ballots
from repro.tally.decrypt import DecryptedVote, decrypt_votes
from repro.tally.pipeline import TallyPipeline, TallyResult

__all__ = [
    "TupleShuffle",
    "shuffle_tuples_with_proof",
    "tuple_mix_cascade",
    "FilterResult",
    "filter_ballots",
    "deduplicate_ballots",
    "DecryptedVote",
    "decrypt_votes",
    "TallyPipeline",
    "TallyResult",
]
