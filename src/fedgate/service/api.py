"""In-process HTTP-shaped front door over the gateway and the service.

``handle(method, path, query=…, headers=…, body=…)`` returns a
``Response`` with a status code and a JSON-able body (CSV for the
metrics stream). Everything under ``/data`` and ``/jobs`` requires an
``Authorization: Grant <token>`` header backed by an on-ledger grant.
``handle`` never raises: every malformed input answers 400.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from ..access import AccessGateway, AccessRequest
from ..canonical import from_hex
from ..errors import ValidationError
from ..fl import FederationConfig
from ..identity import Attestation
from ..ledger import ContractNotFoundError
from .facade import FlaasService, UnauthorizedTokenError, UnknownJobError
from .jobs import DataFilter

_JOB_PATH = re.compile(r"^/jobs/(?P<job_id>[A-Za-z0-9-]+)(?P<tail>/metrics|/model)?$")

_OUTCOME_STATUS = {
    "granted": 200,
    "denied": 403,
    "rejected-rate": 429,
    "rejected-capacity": 503,
}


@dataclass(frozen=True)
class Response:
    status: int
    body: dict | list | str
    content_type: str = "application/json"


class ApiError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def _parse(field: str, parser: Callable, value):
    """``parser(value)`` on one untrusted body field; any failure answers 400."""
    try:
        return parser(value)
    except (KeyError, TypeError, ValueError, AttributeError) as error:
        raise ApiError(400, f"body field {field!r} is malformed: {error}") from None


class ServiceApi:
    def __init__(self, gateway: AccessGateway, service: FlaasService, clock: Callable[[], int]):
        self._gateway = gateway
        self._service = service
        self._clock = clock

    def handle(
        self,
        method: str,
        path: str,
        *,
        query: dict | None = None,
        headers: dict | None = None,
        body: dict | None = None,
    ) -> Response:
        query = query or {}
        headers = headers or {}
        body = body or {}
        try:
            if not isinstance(query, dict):
                raise ApiError(400, "query must be a mapping")
            if not isinstance(body, dict):
                raise ApiError(400, "body must be a JSON object")
            return self._route(method.upper(), path, query, headers, body)
        except ApiError as error:
            return Response(error.status, {"error": error.message})
        except UnauthorizedTokenError as error:
            return Response(401, {"error": str(error)})
        except (UnknownJobError, ContractNotFoundError) as error:
            return Response(404, {"error": str(error)})
        except ValidationError as error:
            return Response(400, {"error": str(error)})

    def _route(self, method, path, query, headers, body) -> Response:
        if path == "/access/requirements" and method == "GET":
            return self._requirements(query)
        if path == "/access/request" and method == "POST":
            return self._access_request(body)
        if path == "/access/howto" and method == "GET":
            return self._howto()
        if path == "/data/metadata" and method == "GET":
            token = self._token(headers)
            return Response(200, self._service.metadata(token).to_dict())
        if path == "/data/preview" and method == "GET":
            token = self._token(headers)
            return Response(200, {"preview": list(self._service.preview(token))})
        if path == "/jobs" and method == "POST":
            return self._submit_job(headers, body)
        match = _JOB_PATH.match(path)
        if match and method == "GET":
            return self._job_routes(match, headers)
        raise ApiError(404, f"no route for {method} {path}")

    # ------------------------------------------------------------- access

    def _requirements(self, query) -> Response:
        service = query.get("service")
        if not isinstance(service, str) or not service:
            raise ApiError(400, "query parameter 'service' is required as a string")
        requirements = self._gateway.requirements(service)
        return Response(
            200,
            {"service": service, "requiredClaims": [r.to_dict() for r in requirements]},
        )

    def _access_request(self, body) -> Response:
        for field in ("requester", "service", "scheme", "nonce"):
            if not isinstance(body.get(field), str):
                raise ApiError(400, f"body field {field!r} is required as a string")
        request = AccessRequest(
            requester=body["requester"],
            service=body["service"],
            scheme=body["scheme"],
            nonce=_parse("nonce", from_hex, body["nonce"]),
            created_at=int(self._clock()),
        )
        attestation = (
            _parse("attestation", Attestation.from_dict, body["attestation"])
            if "attestation" in body
            else None
        )
        outcome = self._gateway.request_access(request, attestation=attestation)
        payload = {
            "decision": outcome.decision,
            "reason": outcome.reason,
            "missing": list(outcome.missing),
        }
        if outcome.grant is not None:
            payload["grant"] = outcome.grant.to_dict()
        if outcome.tx_id is not None:
            payload["txId"] = outcome.tx_id
        return Response(_OUTCOME_STATUS[outcome.decision], payload)

    def _howto(self) -> Response:
        return Response(
            200,
            {
                "services": self._gateway.services(),
                "flow": [
                    "GET /access/requirements?service=<name> to see required claims",
                    "collect the claims from a consortium issuer",
                    "POST /access/request with your DID to obtain a grant token",
                    "call the data and job endpoints with 'Authorization: Grant <token>'",
                ],
                "addresses": {
                    "requirements": "/access/requirements",
                    "request": "/access/request",
                    "metadata": "/data/metadata",
                    "preview": "/data/preview",
                    "jobs": "/jobs",
                    "jobStatus": "/jobs/{id}",
                    "visualization": "/jobs/{id}/metrics",
                    "model": "/jobs/{id}/model",
                },
            },
        )

    # --------------------------------------------------------------- jobs

    def _token(self, headers) -> str:
        value = headers.get("Authorization", "")
        if not isinstance(value, str) or not value.startswith("Grant "):
            raise UnauthorizedTokenError("expected 'Authorization: Grant <token>'")
        return value[len("Grant ") :]

    def _submit_job(self, headers, body) -> Response:
        token = self._token(headers)
        if "config" not in body:
            raise ApiError(400, "body field 'config' is required")
        config = _parse("config", FederationConfig.from_dict, body["config"])
        data_filter = (
            _parse("dataFilter", DataFilter.from_dict, body["dataFilter"])
            if body.get("dataFilter")
            else None
        )
        record = self._service.submit_job(
            token,
            config,
            estimated_runtime=body.get("estimatedRuntime", 60.0),
            priority_weight=body.get("priorityWeight", 1.0),
            data_filter=data_filter,
        )
        return Response(201, record.to_dict())

    def _job_routes(self, match, headers) -> Response:
        token = self._token(headers)
        job_id = match.group("job_id")
        tail = match.group("tail")
        if tail == "/metrics":
            csv_text = self._service.job_metrics_csv(token, job_id)
            return Response(200, csv_text, content_type="text/csv")
        if tail == "/model":
            return Response(200, self._service.job_model(token, job_id))
        return Response(200, self._service.job(token, job_id).to_dict())
