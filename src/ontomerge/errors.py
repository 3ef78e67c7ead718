"""Exception hierarchy shared across the package."""


class IntegrationError(Exception):
    """Base class for every error this package raises on purpose."""


class MalformedFile(IntegrationError):
    """A file could not be read, decoded as UTF-8, or parsed as JSON."""


class SchemaViolation(IntegrationError):
    """A document or in-memory value violates a structural invariant."""


class EmptyTerm(SchemaViolation):
    """A term is empty or normalizes to the empty string."""


class CyclicComposition(SchemaViolation):
    """Composition (part_of) links form a cycle."""


class HomonymClusterCollision(IntegrationError):
    """Transitive merging would place a homonym pair in one cluster.

    ``chain`` holds the offending path of (concept, concept, verdict)
    edges that connects the homonym pair.
    """

    def __init__(self, message: str, chain=()):
        super().__init__(message)
        self.chain = tuple(chain)


class InfeasibleSpec(IntegrationError):
    """Scenario specification violates its own count constraints."""


class ScenarioMismatch(IntegrationError):
    """Report and ground truth do not cover the same concept pairs."""
