#pragma once

// The pluggable happens-before oracle seam (DESIGN.md §12).
//
// Every consumer of reachability - detect/history.hpp, the sharded history,
// the memo cache plumbing and all four detectors - names the oracle through
// `reach::Engine`, an alias selected here at compile time, instead of the
// concrete SP-order types.  An alternate backend (a DePa-style OM engine, or
// a futures-aware oracle per "Efficient Race Detection with Futures") plugs
// in by defining PINT_REACH_BACKEND to its engine type; the concept below
// states the full contract it must honor.
//
// Contract highlights an alternate backend must preserve:
//
//  * Labels are immutable once published and outlive the strand records that
//    carry them (history treaps retain labels after strand recycling).
//  * relation(u, v, memo) answers both order verdicts for the ordered pair;
//    equal labels are ordered by NEITHER (relation yields {false, false}),
//    which is what makes same-label strand segments (lockset splits) inert.
//  * relation() must be safe to call concurrently with maintenance hooks
//    (on_spawn runs on core workers while history lanes query).
//  * Memo contract: `Memo` caches (pair -> Relation) verdicts and validates
//    them against backend version counters.  The backend may change the COST
//    of a query via the memo, never its verdict, and passing a null memo must
//    degrade to the direct query.  Memo instances are single-threaded (one
//    per history lane).
//  * structural_epoch() is monotone non-decreasing and changes whenever any
//    cached verdict could have been invalidated (stats/tests key on it).

#include <concepts>
#include <cstdint>

// Both backends are ALWAYS compiled (and concept-checked below) no matter
// which one PINT_REACH_BACKEND selects, so an edit that breaks the seam for
// the non-selected engine still fails every build - the backend-matrix CI
// lane then proves behavioral (not just syntactic) interchangeability.
#include "reach/depa.hpp"
#include "reach/sp_order.hpp"

namespace pint::reach {

/// The happens-before oracle concept.  `detect/history.hpp` and the
/// detectors are written against exactly this surface; sp_order's
/// SpOrderEngine is the reference model.
template <class E>
concept HappensBeforeEngine =
    requires(E e, const E ce, const typename E::Label& u,
             typename E::Label* sync_node, typename E::Memo* memo) {
      typename E::Label;
      typename E::Relation;
      typename E::Memo;
      // Label of the computation's initial strand.
      { e.root_label() } -> std::same_as<typename E::Label>;
      // Maintenance hooks: spawn creates child/continuation labels (and the
      // sync node's label at the block's first spawn); steal/join are no-ops
      // for SP-order but a backend tracking per-worker state needs them.
      { e.on_spawn(u, sync_node) };
      { e.on_steal(u) };
      { e.on_join(u, u) };
      // Queries.  All const: safe from any history lane.
      { ce.relation(u, u, memo) } -> std::same_as<typename E::Relation>;
      { ce.precedes(u, u, memo) } -> std::same_as<bool>;
      { ce.parallel(u, u, memo) } -> std::same_as<bool>;
      { ce.left_of(u, u, memo) } -> std::same_as<bool>;
      { ce.structural_epoch() } -> std::same_as<std::uint64_t>;
      // Relation exposes the two order bits the reader-retention resolver
      // needs: series = eng && heb, parallel = eng != heb, left_of = eng.
      requires requires(const typename E::Relation r) {
        { r.eng } -> std::convertible_to<bool>;
        { r.heb } -> std::convertible_to<bool>;
      };
    };

// Compile-time backend selection.  Detectors, history lanes and records all
// name `reach::Engine` (and its nested Label/Relation/Memo); swapping the
// oracle is a -DPINT_REACH_BACKEND=... away (the top-level CMake option of
// the same name maps `sporder`/`depa` onto these types) and everything
// re-types.  Selection is compile-time, not a detect::Tuning runtime knob,
// deliberately: strands, store segments and trace records embed Engine::Label
// BY VALUE, so runtime dispatch would mean either fattening every record to
// the union of both label layouts or virtualizing the hottest query in the
// detector - EXPERIMENTS.md §fig3 carries the measured ablation that
// justifies skipping that cost.
#ifndef PINT_REACH_BACKEND
#define PINT_REACH_BACKEND ::pint::reach::SpOrderEngine
#endif

using Engine = PINT_REACH_BACKEND;

// BOTH backends must honor the contract at all times, selected or not.
static_assert(HappensBeforeEngine<SpOrderEngine>,
              "SpOrderEngine must satisfy reach::HappensBeforeEngine");
static_assert(HappensBeforeEngine<DePaEngine>,
              "DePaEngine must satisfy reach::HappensBeforeEngine");
static_assert(HappensBeforeEngine<Engine>,
              "PINT_REACH_BACKEND must satisfy reach::HappensBeforeEngine");

}  // namespace pint::reach
