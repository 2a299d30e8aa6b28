"""Deduplicated, severity-ranked alerts (the Fig. 12 anomaly → action hop).

:class:`AlertManager` is the sink that turns raw findings — anomaly-manager
detections and slow-query bursts — into operator-facing alerts.  Repeated
findings with the same key inside the dedup window fold into one alert with
an incremented ``count`` instead of flooding the log, the way production
alerting pipelines (and Greenplum's ``gp_stat`` alert views) behave.

Alerts are double-published: kept in a bounded in-memory log served as
``sys.alerts``, and — when an information store is bound — recorded as
``alerts.<severity>`` series so detectors and the workload manager can react
to alert pressure itself.  The manager is deliberately duck-typed against
:class:`repro.autonomous.anomaly.Anomaly` (it reads ``detector``, ``metric``,
``severity.value``, ``message``, ``t_us``) to keep ``repro.obs`` free of an
import cycle with the autonomous package.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.obs.metrics import MetricsRegistry

SEVERITIES = ("critical", "warning", "info")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}


@dataclass
class Alert:
    """One deduplicated alert."""

    alert_id: int
    source: str
    severity: str
    message: str
    first_us: float
    last_us: float
    count: int = 1

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK.get(self.severity, len(SEVERITIES))

    def as_row(self) -> Tuple[int, str, str, str, float, float, int]:
        return (self.alert_id, self.severity, self.source, self.message,
                self.first_us, self.last_us, self.count)


class AlertManager:
    """Fold findings into alerts; rank by severity; publish to the store."""

    def __init__(self, metrics: Optional[MetricsRegistry] = None,
                 dedup_window_us: float = 5_000_000.0,
                 max_alerts: int = 256):
        if dedup_window_us < 0:
            raise ConfigError("dedup_window_us cannot be negative")
        if max_alerts <= 0:
            raise ConfigError("max_alerts must be positive")
        self.metrics = metrics
        self.dedup_window_us = float(dedup_window_us)
        self.max_alerts = max_alerts
        #: Optional :class:`repro.autonomous.infostore.InformationStore`;
        #: bound late (by the autonomous manager) to avoid an import cycle.
        self.store = None
        self._alerts: "OrderedDict[str, Alert]" = OrderedDict()
        self._next_id = 1
        self.raised_total = 0
        self.deduplicated_total = 0

    def bind_store(self, store) -> None:
        self.store = store

    # -- raising -----------------------------------------------------------

    def raise_alert(self, source: str, severity: str, message: str,
                    t_us: float, key: Optional[str] = None) -> Alert:
        """Raise (or refresh) an alert; returns the live alert record."""
        if severity not in _SEVERITY_RANK:
            raise ConfigError(f"unknown severity {severity!r}")
        dedup_key = key if key is not None else source
        existing = self._alerts.get(dedup_key)
        if (existing is not None
                and t_us - existing.last_us <= self.dedup_window_us):
            existing.count += 1
            existing.last_us = max(existing.last_us, float(t_us))
            existing.message = message
            if _SEVERITY_RANK[severity] < existing.rank:
                existing.severity = severity      # escalate, never de-escalate
            self.deduplicated_total += 1
            return existing
        alert = Alert(
            alert_id=self._next_id,
            source=source,
            severity=severity,
            message=message,
            first_us=float(t_us),
            last_us=float(t_us),
        )
        self._next_id += 1
        self._alerts[dedup_key] = alert
        while len(self._alerts) > self.max_alerts:
            self._alerts.popitem(last=False)      # evict the oldest key
        self.raised_total += 1
        if self.metrics is not None:
            self.metrics.counter("alerts.raised").inc()
            self.metrics.counter(f"alerts.{alert.severity}").inc()
        if self.store is not None:
            self.store.record(f"alerts.{alert.severity}", t_us, 1.0)
            self.store.record("alerts.active", t_us, float(len(self._alerts)))
        return alert

    def from_anomaly(self, anomaly) -> Alert:
        """Adapt an anomaly-manager finding (duck-typed ``Anomaly``)."""
        severity = getattr(anomaly.severity, "value", str(anomaly.severity))
        return self.raise_alert(
            source=f"anomaly:{anomaly.detector}",
            severity=severity if severity in _SEVERITY_RANK else "warning",
            message=anomaly.message,
            t_us=anomaly.t_us,
            key=f"{anomaly.detector}:{anomaly.metric}",
        )

    def from_fault(self, failpoint: str, action: str, target: str,
                   t_us: float, severity: str = "warning") -> Alert:
        """Raise a failure alert for one injected fault.

        Keyed by (failpoint, target) so a retried fault at the same site
        folds into one alert — the chaos suite asserts exactly one alert
        per distinct injected fault site.
        """
        return self.raise_alert(
            source="faults",
            severity=severity,
            message=f"injected {action} at {failpoint} on {target}",
            t_us=t_us,
            key=f"fault:{failpoint}:{target}",
        )

    def check_slow_queries(self, slowlog, now_us: float,
                           burst_threshold: int = 3,
                           window_us: float = 1_000_000.0) -> Optional[Alert]:
        """Raise a warning when a burst of slow queries lands in the window."""
        recent = slowlog.recorded_since(now_us - window_us)
        if recent < burst_threshold:
            return None
        return self.raise_alert(
            source="slowlog",
            severity="warning",
            message=(f"{recent} slow queries in the last "
                     f"{window_us:.0f}us (threshold {burst_threshold})"),
            t_us=now_us,
            key="slowlog.burst",
        )

    # -- reading -----------------------------------------------------------

    def alerts(self) -> List[Alert]:
        """All live alerts, most severe first, then oldest first."""
        return sorted(self._alerts.values(),
                      key=lambda a: (a.rank, a.first_us, a.alert_id))

    def __len__(self) -> int:
        return len(self._alerts)

    def reset(self) -> None:
        self._alerts.clear()
        self._next_id = 1
        self.raised_total = 0
        self.deduplicated_total = 0
