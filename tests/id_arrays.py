"""The one node-id format of records, views, partitions, observed sets and
pooled ids: read-only 1-d int64 arrays."""

import numpy as np


def assert_ids(got, want) -> None:
    """``got`` is a read-only int64 id array holding exactly ``want``'s ids,
    in order."""
    assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.ndim == 1
    assert not got.flags.writeable
    assert np.array_equal(got, np.asarray(want, dtype=np.int64))
