"""Issuance-side SCMS components as isolated state machines."""

from .base import Component, Identity
from .crlstore import CrlStore, Pg
from .enrollment import Dcm, Eca, UncertifiedModel, device_handle
from .la import LinkageAuthority
from .lop import Lop
from .pca import Pca, request_hash
from .ra import Ra

__all__ = [
    "Component",
    "CrlStore",
    "Dcm",
    "Eca",
    "Identity",
    "LinkageAuthority",
    "Lop",
    "Pca",
    "Pg",
    "Ra",
    "UncertifiedModel",
    "device_handle",
    "request_hash",
]
