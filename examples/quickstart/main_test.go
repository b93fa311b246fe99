package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// [tmk] counter=4 vector-sum=14
	// [tmk] modeled time 0.005771s, 44 wire messages, 3.8 KB
	//
	// [pvm] counter=4 vector-sum=14
	// [pvm] modeled time 0.000553s, 3 user messages, 0.1 KB
}
