"""The ``RepetitionBatch`` protocol and the chunk primitives.

Every dense batch object in the repository — ``ProbeBatchResult`` /
``SteadyBatchResult`` / ``QueueTraceBatch``
(:mod:`repro.sim.probe_vector`) and ``VectorBatchResult``
(:mod:`repro.sim.vector`) — carries one repetition per row and keeps
every scalar configuration (packet size, window, station count) equal
across rows.  :class:`RepetitionBatch` freezes that shared shape into
a structural protocol:

* ``repetitions`` — the row count;
* ``concat(parts)`` — fold row-compatible batches into one, in row
  order.

Every backend's ``run_batch`` answers with such a batch.  The kernels
resolve a batch (or a chunk of one) at a time; the event engine runs
one repetition at a time and returns it as a one-row batch of the
same class.  Both fold their parts with the batch class's ``concat``,
so a caller reads one object whichever backend ran.

The protocol is *structural* (:func:`typing.runtime_checkable`) on
purpose: the simulation kernels sit below this layer and must not
import it — they conform by shape alone.  The chunk loop in
:mod:`repro.backends.base` imports :func:`chunk_bounds` lazily, at
call time, for the same reason.

``concat`` is what makes streaming execution bit-identical: a chunked
run produces exactly the rows a dense run would (same per-repetition
seeds, see :func:`resolve_rep_seeds`), so folding chunks row-wise
reconstructs the dense batch exactly.
"""

from __future__ import annotations

from typing import List, Protocol, Sequence, runtime_checkable

import numpy as np


@runtime_checkable
class RepetitionBatch(Protocol):
    """Structural protocol of every dense repetition-batch object.

    Implementations keep one repetition per row and all scalar
    configuration equal across rows; ``concat`` requires that equality
    and raises ``ValueError`` on mismatch.
    """

    @property
    def repetitions(self) -> int:
        """Number of repetitions in the batch (rows)."""
        ...

    @classmethod
    def concat(cls, parts: Sequence["RepetitionBatch"]
               ) -> "RepetitionBatch":
        """Fold row-compatible batches into one, preserving row order."""
        ...


def resolve_rep_seeds(seed: int, repetitions: int) -> np.ndarray:
    """The canonical per-repetition seeds of a batch, as an array.

    The same ``SeedSequence(seed).generate_state(repetitions)`` scheme
    as :func:`repro.runtime.executor.derive_seeds` (and the derivation
    every vector kernel applies internally), exposed at this layer so
    chunked callers can slice it: ``resolve_rep_seeds(seed, n)[lo:hi]``
    is exactly the seed slice a dense run would hand repetitions
    ``lo..hi-1``, which is what makes chunk boundaries invisible to
    the random universe a repetition index maps to.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    return np.random.SeedSequence(seed).generate_state(repetitions)


def chunk_bounds(repetitions: int, chunk_reps: int) -> List[tuple]:
    """Contiguous ``[lo, hi)`` repetition ranges of size ``chunk_reps``.

    The final chunk absorbs the remainder (it may be smaller); chunk
    sizes at or above ``repetitions`` yield the single dense range.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    if chunk_reps < 1:
        raise ValueError(f"chunk_reps must be >= 1, got {chunk_reps}")
    return [(lo, min(lo + chunk_reps, repetitions))
            for lo in range(0, repetitions, chunk_reps)]
