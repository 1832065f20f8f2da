#pragma once

// Homomorphic images and inverse images of automata. The image is how the
// paper's "abstract behavior" (Definition 6.2) is computed, the reduction
// that turns Figure 2 (or 3) into Figure 4. image_nfa() builds it the
// textbook way: apply h to every transition label, then eliminate the
// resulting ε-transitions; tests and rlv_fuzz use it as the reference. The
// reduced image skips that NFA: one subset construction over the system
// itself steps each target letter through its source letters and closes
// every subset under the hidden ones (determinize_from, lang/ops.hpp), so
// it costs what its subsets hold rather than an n×n closure.

#include "rlv/hom/homomorphism.hpp"
#include "rlv/lang/nfa.hpp"

namespace rlv {

/// NFA over Σ' accepting h(L(nfa)). ε-transitions produced by hidden letters
/// are eliminated by closure; the result is trimmed. Quadratic in the state
/// count (one closure set per state): the reference construction, not the
/// pipeline's.
[[nodiscard]] Nfa image_nfa(const Nfa& nfa, const Homomorphism& h);

/// The image "after reduction" (the paper's phrasing for Figure 4): the
/// minimal deterministic automaton of h(L(nfa)), returned as an NFA, built
/// by the hidden-closure subset construction and minimization. For
/// prefix-closed inputs the result is again all-accepting, so it can be fed
/// straight back into limit_of_prefix_closed.
[[nodiscard]] Nfa reduced_image_nfa(const Nfa& nfa, const Homomorphism& h);

/// NFA over Σ accepting h⁻¹(L(nfa')) for an automaton over Σ': renamed
/// letters follow their image's transitions, hidden letters self-loop.
[[nodiscard]] Nfa inverse_image_nfa(const Nfa& target_nfa,
                                    const Homomorphism& h);

/// Extends every maximal word of L (words that are not proper prefixes of
/// other words in L) by `#`* as in [Nitsche–Ochsenschläger 96], keeping
/// maximal words visible in lim(L). Returns an automaton over the source
/// alphabet extended with the padding symbol `pad_name` (interned into a
/// fresh alphabet). Precondition: L prefix-closed, `nfa` all-accepting.
[[nodiscard]] Nfa extend_maximal_words(const Nfa& nfa,
                                       std::string_view pad_name = "pad");

}  // namespace rlv
