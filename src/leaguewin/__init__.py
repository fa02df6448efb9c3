"""Cross-league esports win prediction.

Builds a team-game graph from season match logs, trains a graph
convolutional classifier on one league, and predicts game outcomes in
another, alongside an Elo-style rating baseline and a lookback random
forest.
"""

__version__ = "0.1.0"
