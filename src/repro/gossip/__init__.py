"""Gossip layer: private data dissemination and reconciliation."""

from repro.gossip.dissemination import GossipNetwork

__all__ = ["GossipNetwork"]
