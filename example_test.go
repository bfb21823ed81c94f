package coopmrm_test

import (
	"fmt"

	"coopmrm"
)

// Tables render as aligned monospaced text, ready for terminals and
// EXPERIMENTS.md.
func ExampleTable_Render() {
	t := coopmrm.Table{
		ID:     "EX",
		Title:  "demo",
		Paper:  "Table I",
		Header: []string{"class", "local_mrc"},
	}
	t.AddRow("status_sharing", "yes")
	t.AddRow("orchestrated", "yes")
	fmt.Println(t.Render())
	// Output:
	// EX — demo
	// reproduces: Table I
	// class           local_mrc
	// ---------------------------
	// status_sharing  yes
	// orchestrated    yes
}

// Every paper artefact has a registered experiment.
func ExampleExperimentByID() {
	e, ok := coopmrm.ExperimentByID("E3")
	fmt.Println(ok, e.Paper)
	// Output: true Table I
}

// The full index regenerates every table, figure and narrative.
func ExampleExperimentIDs() {
	ids := coopmrm.ExperimentIDs()
	fmt.Println(len(ids), ids[0], ids[len(ids)-1])
	// Output: 19 E1 E19
}
