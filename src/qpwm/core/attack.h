// Attacker models for the adversarial setting. Two tiers:
//
// Tier 1 (Fact 1's assumptions): bounded-distortion weight tampering by a
// malicious server that does not know the secret pair positions (limited
// knowledge). These attacks transform a weight map and leave the structure
// alone.
//
// Tier 2 (structural attacks, beyond Fact 1): the attacker deletes tuples,
// drops subtrees, ships a subset, or inserts fresh rows. These attacks
// transform the *served answers* — deleted elements vanish from every answer,
// inserted rows show up where the attacker planted them. Detection must treat
// missing pair elements as erasures (see PairObservation) and degrade
// gracefully instead of failing outright.
#ifndef QPWM_CORE_ATTACK_H_
#define QPWM_CORE_ATTACK_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "qpwm/core/answers.h"
#include "qpwm/core/pairs.h"
#include "qpwm/structure/weighted.h"
#include "qpwm/util/random.h"
#include "qpwm/util/status.h"

namespace qpwm {

/// Default RNG seed for attacks that are not given one explicitly. Attacks
/// must never draw from ambient entropy: a campaign report that records the
/// spec (including this seed) replays the identical attack.
inline constexpr uint64_t kDefaultAttackSeed = 1;

// --- Tier 1: weight tampering ----------------------------------------------

/// Adds an independent uniform integer in [-c, c] to every weight.
/// Realizes a c'-local distortion; the induced global distortion is measured
/// by the caller.
WeightMap UniformNoiseAttack(const WeightMap& marked, Weight c, Rng& rng);

/// Flips each weight by +-1 with probability `flip_prob` (random bit-jitter,
/// the closest analogue of LSB-resetting attacks on [1]).
WeightMap JitterAttack(const WeightMap& marked, double flip_prob, Rng& rng);

/// Rounds every weight to the nearest multiple of `granularity` (>= 1) —
/// a deterministic "cleaning" attack. Ties round down.
WeightMap RoundingAttack(const WeightMap& marked, Weight granularity);

/// Guessing attack: the attacker picks `guesses` random element pairs and
/// applies the inverse (+1, -1) trick hoping to hit the owner's pairs. With
/// limited knowledge the hit probability per guess is ~ 1 / |W|^2.
WeightMap GuessingPairAttack(const WeightMap& marked, const QueryIndex& index,
                             size_t guesses, Rng& rng);

// --- Collusion attacks -------------------------------------------------------
//
// Servers holding several differently-marked copies of the same data forge
// one hybrid — the auto-collusion risk Section 5 raises against naive
// re-marking after updates, and the threat model fingerprint tracing
// (coding/fingerprint.h) is provisioned against.

/// Shared precondition of every collusion attack: at least one copy, all over
/// the same weight domain (copies of different subsets must not be silently
/// merged into garbage). Violations are kInvalidArgument.
[[nodiscard]] Status CheckCollusionCopies(const std::vector<const WeightMap*>& copies);

/// One collusion strategy: a coalition pools its marked copies and forges a
/// hybrid weight map. The domain contract (CheckCollusionCopies) is enforced
/// in the base class, once, for every strategy.
class CollusionAttack {
 public:
  virtual ~CollusionAttack() = default;

  /// Stable name, echoed into campaign reports ("averaging", "interleave:64").
  virtual std::string Name() const = 0;

  /// Forges the hybrid. Deterministic given `rng`'s state; strategies that
  /// need no randomness leave `rng` untouched.
  [[nodiscard]] Result<WeightMap> Forge(const std::vector<const WeightMap*>& copies,
                                        Rng& rng) const;

 private:
  /// Strategy body; only ever sees coalitions that passed the domain check.
  virtual WeightMap ForgeValid(const std::vector<const WeightMap*>& copies,
                               Rng& rng) const = 0;
};

/// Per-weight average, rounding half toward the first copy's side. With
/// enough copies the pair deltas wash out.
class AveragingCollusion : public CollusionAttack {
 public:
  std::string Name() const override { return "averaging"; }

 private:
  WeightMap ForgeValid(const std::vector<const WeightMap*>& copies,
                       Rng& rng) const override;
};

/// Per-weight lower median: with three or more copies the median kills any
/// pair delta that only a minority of copies carries — a strictly stronger
/// wash-out than averaging for odd counts.
class MedianCollusion : public CollusionAttack {
 public:
  std::string Name() const override { return "median"; }

 private:
  WeightMap ForgeValid(const std::vector<const WeightMap*>& copies,
                       Rng& rng) const override;
};

/// Per-weight extremes: each weight becomes the minimum or maximum across
/// copies, chosen by a coin. Models colluders who prefer plausible-looking
/// outliers over smoothing; marked deltas survive with probability 1/2 per
/// pair side instead of being averaged away.
class MinMaxCollusion : public CollusionAttack {
 public:
  std::string Name() const override { return "minmax"; }

 private:
  WeightMap ForgeValid(const std::vector<const WeightMap*>& copies,
                       Rng& rng) const override;
};

/// Segment-interleaving copy-paste: the weight domain, in its deterministic
/// ForEach order, is cut into runs of `segment_len` consecutive weights and
/// each run is copied wholesale from one coalition member drawn from `rng`.
/// Models colluders splicing whole regions (pages, table slices, subtrees)
/// instead of merging per weight — every weight is an authentic marked value,
/// but no single codeword is present end to end.
class InterleavingCollusion : public CollusionAttack {
 public:
  explicit InterleavingCollusion(size_t segment_len = 64);
  std::string Name() const override;
  size_t segment_len() const { return segment_len_; }

 private:
  WeightMap ForgeValid(const std::vector<const WeightMap*>& copies,
                       Rng& rng) const override;

  size_t segment_len_;
};

/// Specs understood by MakeCollusionAttack, for campaign grids and usage text.
const std::vector<std::string>& KnownCollusionSpecs();

/// Builds a collusion attack from a spec string: "averaging", "median",
/// "minmax", or "interleave[:LEN]" (segment length, default 64). Unknown
/// specs are kInvalidArgument.
[[nodiscard]] Result<std::unique_ptr<CollusionAttack>> MakeCollusionAttack(
    const std::string& spec);

// --- Tier 2: structural attacks --------------------------------------------

/// A suspect server whose data was structurally tampered with: erased
/// elements vanish from every answer, inserted rows are appended to the
/// answers the attacker planted them in. The paper's indirect-access threat
/// model is preserved — detection still only sees answers. The base server
/// must outlive the wrapper. Batch requests are forwarded to the base as a
/// batch (AnswerAll) and tampered per answer, so a batching base keeps its
/// amortization under attack; flat requests stay flat end to end.
class TamperedAnswerServer : public BatchAnswerServer {
 public:
  explicit TamperedAnswerServer(const AnswerServer& base) : base_(&base) {}

  /// Removes `element` from every answer (tuple deletion / subset shipping).
  void Erase(const Tuple& element);

  /// Appends `row` to the answer of parameter `param` only.
  void InsertAt(const Tuple& param, AnswerRow row) {
    inserted_at_[param].push_back(std::move(row));
  }

  /// Appends `row` to every answer (an inserted tuple matching all queries).
  void InsertEverywhere(AnswerRow row) {
    inserted_everywhere_.push_back(std::move(row));
  }

  size_t num_erased() const { return erased_.size(); }

  AnswerSet Answer(const Tuple& params) const override;
  std::vector<AnswerSet> AnswerBatch(const std::vector<Tuple>& params) const override;
  /// Same rows as AnswerBatch: the base's flat batch with erased rows
  /// dropped in place, then each parameter's InsertAt rows and the
  /// InsertEverywhere rows appended, in Tamper's order.
  void AnswerAllFlat(const std::vector<Tuple>& params,
                     FlatAnswerBatch& out) const override;

 private:
  /// Applies erasures and insertions for `params` to base rows, in place.
  void Tamper(const Tuple& params, AnswerSet& rows) const;
  /// Whether the row element elems[0, size) was erased.
  bool IsErased(const ElemId* elems, size_t size, Tuple& scratch) const;

  const AnswerServer* base_;
  std::unordered_set<Tuple, TupleHash> erased_;
  /// Dense mirror of the arity-1 entries of erased_: erased_unary_[e] is
  /// set iff {e} is erased. erased_wide_ counts the other entries.
  std::vector<bool> erased_unary_;
  size_t erased_wide_ = 0;
  std::unordered_map<Tuple, AnswerSet, TupleHash> inserted_at_;
  AnswerSet inserted_everywhere_;
};

/// Picks each element independently with probability `frac` (the generic
/// sampling step behind the deletion attacks).
std::vector<Tuple> SampleSubset(const std::vector<Tuple>& elements, double frac,
                                Rng& rng);

/// Subset-deletion attack: each active weighted element of the index is
/// deleted independently with probability `drop_frac`. Returns the deleted
/// element tuples; feed them into TamperedAnswerServer::Erase.
std::vector<Tuple> SubsetDeletionAttack(const QueryIndex& index, double drop_frac,
                                        Rng& rng);

/// A fake row and the parameter whose answer it is planted in.
struct FakeTuplePlacement {
  size_t param_idx;
  AnswerRow row;
};

/// SPSW-style fake-tuple generator: `count` fresh rows with plausible
/// weights (uniform over the marked map's observed min..max range), fresh
/// element ids beyond the original universe (mimicking genuinely new keys),
/// each targeted at a random parameter's answer. Per row the weight is drawn
/// before the target parameter — the draw order TupleInsertionAttack has
/// always used, so existing seeds replay identically. The update-stream
/// hostile mix reuses the rows and ignores the placements.
std::vector<FakeTuplePlacement> MakeFakeTupleRows(const QueryIndex& index,
                                                  const WeightMap& marked,
                                                  size_t count, Rng& rng);

/// Tuple-insertion attack: plants `count` fresh rows from MakeFakeTupleRows
/// into the chosen parameters' answers.
void TupleInsertionAttack(TamperedAnswerServer& server, const QueryIndex& index,
                          const WeightMap& marked, size_t count, Rng& rng);

/// Burst deletion: wipes the elements carrying a contiguous run of pair
/// groups. Groups are `redundancy` consecutive pairs of `pairs` (the channel
/// layout of AdversarialScheme); the run covers `region_frac` of all groups
/// at a start position drawn from `rng`. Models correlated structural loss —
/// a dropped subtree, a shipped table slice, a lost page — which takes out
/// neighboring mark carriers together instead of sampling them
/// independently. This is the burst pattern codeword interleaving is sized
/// against. Returns the element tuples to feed into
/// TamperedAnswerServer::Erase.
std::vector<Tuple> PairRegionDeletionAttack(const QueryIndex& index,
                                            const std::vector<WeightPair>& pairs,
                                            size_t redundancy, double region_frac,
                                            Rng& rng);

// --- Composed adversaries ----------------------------------------------------

/// One stacked adversary: every tier-1 value attack and tier-2 structural
/// attack this header defines, applied in a fixed order from a single
/// recorded seed. A field left at its default disables that stage.
struct ComposedAttackSpec {
  /// UniformNoiseAttack range (+-noise per weight); 0 = off.
  Weight noise = 0;
  /// JitterAttack flip probability; 0 = off.
  double jitter_prob = 0;
  /// RoundingAttack granularity; 0 = off (1 is the identity rounding).
  Weight rounding = 0;
  /// Independent per-element deletion probability (SubsetDeletionAttack).
  double deletion_frac = 0;
  /// Contiguous pair-group burst deletion (PairRegionDeletionAttack).
  double region_frac = 0;
  /// Spurious insertions as a fraction of the active set (TupleInsertionAttack).
  double insertion_frac = 0;
  /// Explicit RNG seed; recorded in campaign reports so every trial replays
  /// from the report alone.
  uint64_t seed = kDefaultAttackSeed;
};

/// The serving stack a composed attack produces: an owned honest server over
/// the value-tampered weights, wrapped in the structural tamperer. `server`
/// is the suspect detection should read from.
struct ComposedSuspect {
  std::unique_ptr<HonestServer> base;
  std::unique_ptr<TamperedAnswerServer> server;
  /// Elements structurally erased (region + independent deletion, deduped).
  size_t elements_erased = 0;
  /// Spurious rows planted.
  size_t rows_inserted = 0;
  /// The seed the stack was driven by (== spec.seed; recorded for reports).
  uint64_t seed = kDefaultAttackSeed;
};

/// Applies the full stack to `marked`: noise, jitter, rounding (value tier,
/// in that order), then region deletion, independent deletion, insertion
/// (structural tier). All stages draw from one Rng seeded with `spec.seed`,
/// so equal specs produce byte-identical suspects. `pairs` is the channel
/// pair layout region deletion targets; pass an empty vector when
/// `spec.region_frac` is 0.
ComposedSuspect ApplyComposedAttack(const QueryIndex& index,
                                    const std::vector<WeightPair>& pairs,
                                    size_t redundancy, const WeightMap& marked,
                                    const ComposedAttackSpec& spec);

}  // namespace qpwm

#endif  // QPWM_CORE_ATTACK_H_
