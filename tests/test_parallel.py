import operator

import pytest

from crowdvol.parallel import parallel_map


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_parallel_map_passes_shared_state_and_keeps_order(workers):
    items = range(23)  # several chunks per worker at 2 and 3 workers
    assert parallel_map(operator.sub, (100,), items, workers) == [100 - i for i in items]
