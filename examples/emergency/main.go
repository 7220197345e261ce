// Emergency: the full raw-text pipeline on a Boston-Bombing-style event.
// Unlike quickstart, reports start life as raw tweets: the example runs the
// paper's entire preprocessing chain — keyword filtering + online
// clustering to derive claims from text, then attitude / uncertainty /
// independence scoring to build contribution scores — before the HMM
// engine decodes each discovered claim's evolving truth.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/social-sensing/sstd"
)

func main() {
	// Synthesize a small Boston-like trace. We use only its raw texts
	// and timestamps; claims are re-derived from the text below, exactly
	// as the paper's claim generator does with real tweets.
	gen, err := sstd.NewTraceGenerator(sstd.BostonBombingProfile(), 11)
	if err != nil {
		log.Fatal(err)
	}
	trace, err := gen.Generate(0.002)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingesting %d raw posts from %d sources\n", len(trace.Reports), len(trace.Sources))

	// Claim generation: keyword filter + streaming Jaccard clustering.
	clusterCfg := sstd.DefaultClusterConfig()
	clusterCfg.Keywords = sstd.BostonBombingProfile().Keywords
	clusterer := sstd.NewClusterer(clusterCfg)

	// Semantic scoring: attitude lexicon, hedge classifier, retweet
	// detection.
	scorer := sstd.NewScorer()

	// Truth discovery engine over the derived claims.
	engineCfg := sstd.DefaultConfig(trace.Start)
	engineCfg.ACS.Interval = trace.Duration() / 80
	engineCfg.ACS.WindowIntervals = 3
	engine, err := sstd.NewEngine(engineCfg)
	if err != nil {
		log.Fatal(err)
	}

	kept := 0
	for _, raw := range trace.Reports {
		clusterID, ok := clusterer.Assign(raw.Text, raw.Timestamp)
		if !ok {
			continue // filtered: no event keyword
		}
		kept++
		report := scorer.ScorePost(sstd.Post{
			Source:    raw.Source,
			Claim:     sstd.ClaimID(clusterID),
			Timestamp: raw.Timestamp,
			Text:      raw.Text,
		})
		if err := engine.Ingest(report); err != nil {
			log.Fatal(err)
		}
	}
	clusters := clusterer.Clusters()
	fmt.Printf("kept %d posts after keyword filtering, derived %d claims\n", kept, len(clusters))

	decoded, err := engine.DecodeAll()
	if err != nil {
		log.Fatal(err)
	}

	// Show the five largest claims with their decoded truth strips.
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Size > clusters[j].Size })
	show := 5
	if show > len(clusters) {
		show = len(clusters)
	}
	fmt.Println("\nlargest derived claims and their decoded truth timelines:")
	for _, cl := range clusters[:show] {
		estimates := decoded[sstd.ClaimID(cl.ID)]
		strip := ""
		for _, e := range estimates {
			if e.Value == sstd.True {
				strip += "T"
			} else {
				strip += "f"
			}
		}
		tokens := make([]string, 0, len(cl.Centroid))
		for tok := range cl.Centroid {
			tokens = append(tokens, tok)
		}
		sort.Strings(tokens)
		if len(tokens) > 4 {
			tokens = tokens[:4]
		}
		fmt.Printf("%-12s %5d posts  topic~%v\n  %s\n", cl.ID, cl.Size, tokens, strip)
	}

	// Demonstrate a live query on the busiest claim.
	if len(clusters) > 0 {
		busiest := sstd.ClaimID(clusters[0].ID)
		at := trace.Start.Add(trace.Duration() / 2)
		if v, ok := sstd.TruthAt(decoded[busiest], at); ok {
			fmt.Printf("\nat %s, claim %s is estimated %v\n", at.Format(time.RFC822), busiest, v)
		}
	}
}
