"""Policy evaluation against signer sets, backed by MSP validation.

The :class:`PolicyEvaluator` is what a peer's validation system plugin
(VSCC) uses: given the certificates that produced *valid* signatures over
a transaction's response payload, decide whether the endorsement policy is
satisfied.  Certificate genuineness is checked through the MSP registry,
so forged certificates never satisfy a principal.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence, Union

from repro.common import crypto
from repro.common.errors import PolicyError
from repro.identity.identity import Certificate
from repro.identity.msp import MSPRegistry
from repro.identity.roles import Role
from repro.policy.ast import PolicyNode
from repro.policy.implicit_meta import (
    ImplicitMetaPolicy,
    ResolvedImplicitMeta,
    is_implicit_meta,
    parse_implicit_meta,
)
from repro.policy.parser import parse_policy

AnyPolicy = Union[PolicyNode, ImplicitMetaPolicy, ResolvedImplicitMeta]


@functools.lru_cache(maxsize=1024)
def _parse_text(text: str) -> Union[PolicyNode, ImplicitMetaPolicy]:
    """Parse a policy text once per process: the AST is frozen dataclasses,
    so every evaluator of every channel can share it.  Resolution against
    an org's sub-policies stays per evaluator."""
    return parse_implicit_meta(text) if is_implicit_meta(text) else parse_policy(text)


crypto.register_cache_clearer(_parse_text.cache_clear)


class PolicyEvaluator:
    """Evaluates signature and implicitMeta policies for one channel."""

    def __init__(self, msp_registry: MSPRegistry, org_sub_policies: Mapping[str, PolicyNode]) -> None:
        """``org_sub_policies`` maps msp_id -> that org's "Endorsement" policy."""
        self._msp = msp_registry
        self._org_sub_policies = dict(org_sub_policies)
        # Policy texts repeat for every transaction; resolution is pure,
        # so memoise it (channel config is immutable per evaluator).
        self._resolve_cache: dict[str, Union[PolicyNode, ResolvedImplicitMeta]] = {}

    def _matcher(self, certificate: Certificate, msp_id: str, role: Role) -> bool:
        return self._msp.satisfies_principal(certificate, msp_id, role)

    def resolve(self, policy: AnyPolicy | str) -> Union[PolicyNode, ResolvedImplicitMeta]:
        """Turn any accepted policy form into an evaluable one.

        Strings are parsed as implicitMeta when they match that grammar
        (``"MAJORITY Endorsement"``), otherwise as signature policies.
        """
        if isinstance(policy, str):
            cached = self._resolve_cache.get(policy)
            if cached is not None:
                return cached
            resolved = self.resolve(_parse_text(policy))
            self._resolve_cache[policy] = resolved
            return resolved
        if isinstance(policy, ImplicitMetaPolicy):
            return policy.resolve(self._org_sub_policies)
        if isinstance(policy, (ResolvedImplicitMeta, PolicyNode)):
            return policy
        raise PolicyError(f"unsupported policy object {policy!r}")

    def evaluate(self, policy: AnyPolicy | str, signers: Sequence[Certificate]) -> bool:
        """Whether ``signers`` satisfy ``policy``."""
        resolved = self.resolve(policy)
        return resolved.evaluate(signers, self._matcher)
