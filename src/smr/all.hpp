// Convenience include: every reclamation scheme in the library.
#pragma once

#include "core/epoch_pop.hpp"      // EpochPOP        (paper Alg. 3)
#include "core/hazard_era_pop.hpp" // HazardEraPOP    (paper Alg. 5)
#include "core/hazard_ptr_pop.hpp" // HazardPtrPOP    (paper Alg. 1+2)
#include "smr/brc.hpp"             // BRC (Crystalline substitute)
#include "smr/ebr.hpp"             // EBR             (paper Alg. 6)
#include "smr/he.hpp"              // HE              (paper Alg. 4)
#include "smr/hp.hpp"              // HP
#include "smr/hp_asym.hpp"         // HPAsym (Folly-style)
#include "smr/ibr.hpp"             // IBR (2GE)
#include "smr/nbr.hpp"             // NBR+
#include "smr/nr.hpp"              // NR (leaky)
