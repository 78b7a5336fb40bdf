"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class VerificationError(ReproError):
    """A cryptographic verification (signature, proof, shuffle, …) failed."""


class LedgerError(ReproError):
    """An operation on the public bulletin board was invalid."""


class ProtocolError(ReproError):
    """A protocol step was executed out of order or with invalid inputs."""


class RegistrationError(ProtocolError):
    """A TRIP registration step failed (check-in, credentialing, check-out)."""


class TallyError(ProtocolError):
    """The tallying pipeline detected an inconsistency."""


class CoercionDetected(ReproError):
    """Raised by audit helpers when evidence of coercion/misbehaviour is found."""


class ClusterError(ReproError):
    """A multi-node cluster operation failed (enrollment, transport, or the
    coordinator ran out of live workers for outstanding shards)."""


class GatewayError(ReproError):
    """A gateway (HTTP front door) operation failed server-side."""


class BigIntError(ReproError):
    """A big-integer backend was requested but cannot be used."""
