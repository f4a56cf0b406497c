"""The remote audit services: key service and metadata service (PKG)."""

from repro.core.services.keyservice import AUDIT_ID_LEN, KeyService
from repro.core.services.metadataservice import (
    ROOT_DIR_ID,
    MetadataService,
    identity_string,
    parse_identity,
)

__all__ = [
    "KeyService",
    "MetadataService",
    "AUDIT_ID_LEN",
    "ROOT_DIR_ID",
    "identity_string",
    "parse_identity",
]
