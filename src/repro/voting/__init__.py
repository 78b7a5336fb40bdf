"""The Votegral voting phase: ballot formation and casting.

A voter's device casts a ballot by encrypting the chosen option under the
election authority's collective key, signing the ciphertext with a credential
key pair (real or fake), attaching a proof of ballot well-formedness, and
posting the result to the ballot ledger ``L_V``.  Ballots cast with fake
credentials look identical on the ledger and are silently discarded during
tallying.
"""
