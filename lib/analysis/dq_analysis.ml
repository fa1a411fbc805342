(** Static analysis of CFD rulesets — [cfdclean lint].

    Every algorithm in this repo assumes a well-formed, satisfiable Σ: an
    unsatisfiable or pathological CFD set makes BATCHREPAIR / INCREPAIR
    meaningless.  This library is a compiler-style lint pass over parsed
    tableaux ({!Dq_cfd.Cfd_parser.Located}) that catches those problems
    before any repair runs.  How each check maps back to the paper
    ("Improving Data Quality: Consistency and Accuracy", Cong et al.,
    VLDB 2007):

    - [E001] {e unsatisfiable ruleset} — Section 2 observes that, unlike
      FDs, a CFD set may admit no non-empty instance; the cleaning
      algorithms assume a satisfiable Σ.  Decided via
      {!Dq_cfd.Satisfiability.witness}; a minimal conflicting clause subset
      is extracted by greedy deletion so the report is actionable.
    - [E002] {e conflicting constant patterns} — two clauses over the same
      embedded FD whose LHS patterns can match the same tuple but whose RHS
      constants disagree.  Σ may still be satisfiable (no tuple need match),
      but every matching tuple is unrepairable in place — the degenerate
      case of Section 2's satisfiability discussion.
    - [E003] {e unknown attribute / malformed clause} — a clause that does
      not type-check against [attr(R)] (Section 2's well-formedness), with
      the span of the offending attribute token.
    - [W001] {e redundant pattern row} — implied by the rest of Σ, decided
      with {!Dq_core.Implication}'s refutation search (the companion
      implication analysis Section 2 cites); dropping it shrinks the Σ every
      repair iterates over.
    - [W002] {e subsumed pattern row} — a row strictly less general than a
      sibling row with identical RHS patterns (syntactic special case of
      W001, cf. {!Dq_core.Implication.subsumes}).
    - [W003] {e trivial CFD} — the RHS attribute already appears in the LHS
      with patterns that cannot constrain a matching tuple, so the clause is
      vacuous ([X → A] with [A ∈ X]).
    - [W004] {e cyclic clause interaction} — attribute SCCs of size > 1 in
      the dependency graph of Section 7.2 ({!Dq_core.Depgraph}).  Example
      4.1 shows FD-style repair oscillating exactly on such cycles, which is
      why INCREPAIR must re-examine upstream clauses.
    - [W005] {e duplicate clause names / rows} — harmless to the semantics
      but a smell in hand-written or mined rulesets, and duplicate names
      break per-clause reporting.

    Beyond the per-construct lint, {!Interaction} analyses the whole Σ at
    once — the attribute dependency graph with printable cycle certificates
    ([A001]), direct oscillation pairs ([A002]), the shard-safety
    partition into independently repairable clause groups, and data-aware
    cost estimates ([A003]) — surfaced as [cfdclean analyze].

    {!Lint.run} executes the checks; {!Render} presents the results as
    caret-annotated text or JSON for CI gating. *)

module Diagnostic = Diagnostic
module Lint = Lint
module Render = Render
module Interaction = Interaction
