"""Exception types shared across the toolkit."""


class BridgeGuardError(Exception):
    """Base class for all toolkit errors."""


# --- ingestion ---------------------------------------------------------


class MalformedTrace(BridgeGuardError):
    """Trace document violates the expected call-tracer schema."""


class EmptyTrace(BridgeGuardError):
    """Trace document has no root frame."""


class RpcUnavailable(BridgeGuardError):
    """RPC endpoint unreachable or returned a transport-level failure."""


class TxNotFound(BridgeGuardError):
    """Transaction hash unknown to the node."""


class TraceUnsupported(BridgeGuardError):
    """Node does not expose a call-tracer trace method."""


# --- graph construction ------------------------------------------------


class DisconnectedGraph(BridgeGuardError):
    """Built graph has fewer than 2 vertices."""


# --- features ----------------------------------------------------------


class EmptyCorpus(BridgeGuardError):
    """Embedding training requires a nonempty document corpus."""


class DimensionMismatch(BridgeGuardError):
    """Feature block has the wrong length for its slot."""


class TrainingDiverged(BridgeGuardError):
    """Embedding training produced a vector that is not finite."""


class TrainingProcessLost(BridgeGuardError):
    """A forked embedding-training process ended without reporting."""


class SelfLoopPresent(BridgeGuardError):
    """Motif census input must be a simple digraph without self-loops."""


class MultiEdgePresent(BridgeGuardError):
    """Motif census input must be a square 0/1 adjacency matrix."""


class GraphTooLarge(BridgeGuardError):
    """Brute-force census guarded against combinatorial blowup."""


# --- classification ----------------------------------------------------


class ClassTooSmall(BridgeGuardError):
    """Stratified split cannot be formed from the per-class counts."""


class EmptyTrainingSet(BridgeGuardError):
    """Classifier training requires at least one sample."""


class KTooLarge(BridgeGuardError):
    """KNN neighbor count exceeds the training-set size."""


class LengthMismatch(BridgeGuardError):
    """Predictions and labels must align one-to-one."""


# --- generation / cli --------------------------------------------------


class InvalidConfig(BridgeGuardError):
    """Configuration value outside its documented range."""


class ModelMissing(BridgeGuardError):
    """Detection requires a trained model bundle on disk."""


class ModelVersionMismatch(BridgeGuardError):
    """Serialized model container has an incompatible version."""


class CorpusTooSmall(BridgeGuardError):
    """Benchmarking requires a minimum corpus size."""
