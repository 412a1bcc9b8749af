"""Unit coverage for the persistent-pool registry.

:func:`repro.experiments.parallel.get_pool` keeps one executor per
worker count for the life of the process and refuses serial worker
counts.  The cross-process determinism contracts (every result field
identical to a serial run) live in
tests/integration/test_parallel_runner.py.
"""

import pytest

from repro.errors import ExperimentError
from repro.experiments.parallel import get_pool


class TestPersistentPools:
    def test_pool_is_reused(self):
        assert get_pool(2) is get_pool(2)

    def test_serial_worker_counts_rejected(self):
        with pytest.raises(ExperimentError):
            get_pool(1)
