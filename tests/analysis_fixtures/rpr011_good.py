# repro: module repro.obs.costs
"""RPR011 fixture: the chokepoint itself may read the CPU clock,
and queries are billed through the query scope."""

import time

from repro.obs.scope import query_scope

cpu = time.process_time()


def bill(database) -> None:
    with query_scope(None, 1, "expected_rank", {}):
        database.topk("r", 1)
