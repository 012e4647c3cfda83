"""The sharing table scan: a :class:`TableScan` handed the database's
scan sharing manager.  The loop itself lives in
:mod:`repro.scans.table_scan`."""

from __future__ import annotations

from typing import Any, Optional

from repro.scans.table_scan import OnRun, TableScan


class SharedTableScan(TableScan):
    """Wrap-around scan coordinated by ``database.sharing``."""

    def __init__(
        self,
        database: Any,
        table_name: str,
        first_page: int,
        last_page: int,
        on_run: OnRun,
        estimated_speed: Optional[float] = None,
        record_visits: bool = False,
    ):
        super().__init__(
            database, table_name, first_page, last_page, on_run,
            record_visits=record_visits,
            sharing=database.sharing,
            estimated_speed=estimated_speed,
        )
