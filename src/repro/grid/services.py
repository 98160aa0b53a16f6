"""Service registry: the Web-Services layer the paper says to grow next.

"The logical next step for all projects is to extend the functionality of
their dissemination Web Services to enable full access to data and
analysis functionality.  These Web Services can then be integrated with
Grid technology."

A :class:`ServiceRegistry` holds named, versioned service endpoints (plain
Python callables standing in for SOAP/WSDL endpoints), with per-call
accounting so dissemination load can be studied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.errors import ReproError


class GridError(ReproError):
    """Service registry / federation failure."""


@dataclass
class ServiceEndpoint:
    """One published operation of one project's service."""

    project: str
    operation: str
    handler: Callable[..., Any]
    version: str = "1.0"
    description: str = ""
    calls: int = 0

    @property
    def qualified_name(self) -> str:
        return f"{self.project}.{self.operation}"


class ServiceRegistry:
    """Discovery + invocation for project services."""

    def __init__(self) -> None:
        self._endpoints: Dict[str, ServiceEndpoint] = {}

    def publish(
        self,
        project: str,
        operation: str,
        handler: Callable[..., Any],
        version: str = "1.0",
        description: str = "",
    ) -> ServiceEndpoint:
        endpoint = ServiceEndpoint(
            project=project,
            operation=operation,
            handler=handler,
            version=version,
            description=description,
        )
        if endpoint.qualified_name in self._endpoints:
            raise GridError(f"service {endpoint.qualified_name!r} already published")
        self._endpoints[endpoint.qualified_name] = endpoint
        return endpoint

    def discover(self, project: Optional[str] = None) -> List[ServiceEndpoint]:
        endpoints = sorted(self._endpoints.values(), key=lambda e: e.qualified_name)
        if project is None:
            return endpoints
        return [endpoint for endpoint in endpoints if endpoint.project == project]

    def call(self, qualified_name: str, *args: Any, **kwargs: Any) -> Any:
        endpoint = self._endpoints.get(qualified_name)
        if endpoint is None:
            raise GridError(f"no service {qualified_name!r}")
        try:
            return endpoint.handler(*args, **kwargs)
        finally:
            endpoint.calls += 1

    def usage(self) -> Dict[str, int]:
        return {name: endpoint.calls for name, endpoint in sorted(self._endpoints.items())}
