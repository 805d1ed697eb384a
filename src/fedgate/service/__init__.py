"""Training-as-a-service: metadata, job queue, executor, nodes, HTTP-style API."""

from .nodes import FaultEvent, NodeRegistry
from .executor import JobExecutor
from .api import ServiceApi
from .facade import FlaasService
