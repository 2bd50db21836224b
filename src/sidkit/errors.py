"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class SidkitError(Exception):
    """Base class for all toolkit errors."""


class EmptyAfterVad(SidkitError):
    """Every block of the utterance fell below the silence-energy threshold."""


class SignalTooShort(SidkitError):
    """Signal has fewer samples than one analysis frame."""


class NoUsableFrames(SidkitError):
    """Every frame of an utterance was skipped as degenerate."""


class InsufficientData(SidkitError):
    """Fewer training vectors than mixture components."""


class EmptyFeatureStream(SidkitError):
    """An utterance produced no feature vectors for a required stream."""


class FeatureDimensionMismatch(SidkitError):
    """Feature vectors are not as wide as the models they are scored against."""


class UnsupportedFormat(SidkitError):
    """Audio file cannot be read, or is not 16-bit PCM mono WAV."""


class SampleRateMismatch(SidkitError):
    """Audio sample rate differs from the expected rate."""


class UnstableFilter(SidkitError):
    """Synthesis filter has poles on or outside the unit circle."""


class MissingModel(SidkitError):
    """Model store lacks a model required for scoring."""


class ManifestError(SidkitError):
    """Corpus manifest is malformed or violates the closed-set condition."""


class StoreIntegrityError(SidkitError):
    """Model file failed checksum or structural validation."""


class ConfigMismatch(SidkitError):
    """Models trained under another configuration than the store's own."""


@contextmanager
def named(context):
    """Re-raise a ``SidkitError`` from the block as the same class, its
    message prefixed with ``context: ``: the file, speaker or
    utterance it came from."""
    try:
        yield
    except SidkitError as exc:
        raise type(exc)(f"{context}: {exc}") from exc
