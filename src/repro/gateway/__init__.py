"""The HTTP object gateway: Scalia served over the wire.

The seed reproduction drives the broker in-process (``Scalia.put/get``) and
through an offline CLI.  This package puts a real network front end on it,
matching the paper's framing of Scalia as a brokerage layer exposing "the
simple key/value access interface offered by most cloud storage providers"
(Section III):

* :mod:`repro.gateway.namespace` — deterministic multi-tenant
  ``tenant:bucket -> internal container`` mapping, so tenants reuse friendly
  bucket names without colliding in the broker's flat container namespace.
* :mod:`repro.gateway.frontend` — :class:`BrokerFrontend`, the thin
  dispatch layer between request threads and the broker: it maps tenant
  namespaces, translates errors and counts operations, and serializes
  nothing (the broker's own striped locks keep parallel requests safe).
* :mod:`repro.gateway.routes` — the S3-flavored route table and the
  exception -> HTTP answer (status and headers) mapping.
* :mod:`repro.gateway.server` — the gateway's own HTTP/1.1 server: one
  accept loop, a thread per connection, a one-pass request-head parser
  and one write per small response (``repro serve`` boots one).
* :mod:`repro.gateway.client` — a keep-alive HTTP client.
"""

from repro.gateway.client import GatewayClient, GatewayError
from repro.gateway.frontend import BrokerFrontend
from repro.gateway.namespace import NamespaceError, NamespaceMapper
from repro.gateway.routes import Route, error_answer
from repro.gateway.server import ScaliaGateway

__all__ = [
    "BrokerFrontend",
    "GatewayClient",
    "GatewayError",
    "NamespaceError",
    "NamespaceMapper",
    "Route",
    "ScaliaGateway",
    "error_answer",
]
