"""Comparison systems: SCOPE-style Elo and a lookback random forest."""
